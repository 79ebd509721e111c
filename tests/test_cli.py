import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import krrlab.cli as cli
from krrlab import ExperimentConfig, parse_libsvm
from krrlab.errors import NumericalError

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "sample200.libsvm")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_synth_export_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "data.libsvm")
    rc = cli.main(["synth", "--d", "40", "--n", "25", "--decay", "harmonic",
                   "--seed", "3", "--out", out])
    assert rc == 0
    data = parse_libsvm(out, 40)
    assert data.n == 25
    assert "wrote 25 x 40 dataset" in capsys.readouterr().out


def test_sweep_and_plot(tmp_path, capsys):
    csv = str(tmp_path / "sweep.csv")
    rc = cli.main(["sweep", "--d", "50", "--n-grid", "20:60:10", "--trials", "1",
                   "--test-points", "120", "--noise-draws", "4",
                   "--gamma-override", "0", "--seed", "1", "--out", csv])
    assert rc == 0
    assert "sweep done" in capsys.readouterr().out
    svg = str(tmp_path / "sweep.svg")
    rc = cli.main(["plot", "--csv", csv, "--columns", "var_emp,risk_emp,v1_bound",
                   "--out", svg])
    assert rc == 0
    assert Path(svg).read_text().count("<polyline") == 3


def test_sweep_with_config_file(tmp_path):
    csv = str(tmp_path / "c.csv")
    cfg = dict(mode="synth", kernel="polynomial", d=40, n_grid=[20, 40, 60],
               trials=1, test_points=100, noise_draws=4, seed=2,
               gamma_override=0.0, output_path=csv)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["sweep", "--config", str(path)]) == 0
    assert os.path.exists(csv)


def test_eig_compare_command(tmp_path, capsys):
    out = str(tmp_path / "eig.csv")
    rc = cli.main(["eig-compare", "--mode", "real", "--input", FIXTURE,
                   "--d", "24", "--kernel", "polynomial", "--true-kernel",
                   "--n", "80", "--k", "20", "--n-grid", "80:80:1",
                   "--eig-out", out])
    assert rc == 0
    assert "interlacing violations" in capsys.readouterr().out
    assert len(Path(out).read_text().splitlines()) == 21


def test_bounds_command(capsys):
    rc = cli.main(["bounds", "--decay", "exponential", "--a", "1", "--rstar", "50",
                   "--n", "500", "--cbar", "0.01", "--theta", "0.6667",
                   "--gamma", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bound N" in out and "monotone-decrease condition: True" in out


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_key": 1}))
    rc = cli.main(["sweep", "--config", str(bad)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_config_values_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"trials": "2"}')
    assert cli.main(["sweep", "--config", str(bad)]) == 2
    assert "trials must be an integer" in capsys.readouterr().err
    bad.write_text('{"sigma": NaN}')
    assert cli.main(["sweep", "--config", str(bad)]) == 2
    assert "sigma must be a finite number" in capsys.readouterr().err
    rc = cli.main(["sweep", "--d", "10", "--n-grid", "5:10:5", "--noise-draws", "1"])
    assert rc == 2
    assert "noise_draws must be >= 2" in capsys.readouterr().err


def test_data_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.libsvm")
    rc = cli.main(["sweep", "--mode", "real", "--input", missing, "--d", "10",
                   "--n-grid", "5:10:5"])
    assert rc == 3
    assert "data error" in capsys.readouterr().err

    malformed = tmp_path / "bad.libsvm"
    malformed.write_text("1 3:1 2:1\n")
    rc = cli.main(["eig-compare", "--mode", "real", "--input", str(malformed),
                   "--d", "4", "--n-grid", "2:2:1"])
    assert rc == 3


def test_numerical_error_exit_code(monkeypatch, capsys):
    def boom(config):
        raise NumericalError("synthetic failure")
    monkeypatch.setattr(cli, "run_sweep", boom)
    rc = cli.main(["sweep", "--d", "10", "--n-grid", "5:10:5"])
    assert rc == 4
    assert "numerical failure" in capsys.readouterr().err


def test_singular_cell_is_named(capsys):
    # a ridgeless degree-2 polynomial K at d=3 has rank <= 10: the Cholesky
    # route fails at n=15, and the message names the cell
    rc = cli.main(["sweep", "--kernel", "polynomial", "--degree", "2", "--true-kernel",
                   "--cbar", "0", "--d", "3", "--n-grid", "5:25:5", "--trials", "1",
                   "--test-points", "100", "--noise-draws", "4", "--seed", "1"])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: cell n=15, trial 0, ridge 0: system is not "
                          "positive definite (smallest eigenvalue ")


@pytest.mark.parametrize("argv,want", [
    (["sweep"], ExperimentConfig()),
    (["sweep", "--true-kernel", "--d", "40"], ExperimentConfig(use_linearized=False, d=40)),
], ids=["no-flags", "true-kernel"])
def test_unset_flags_keep_config_defaults(argv, want):
    assert cli._config_from_args(cli._build_parser().parse_args(argv)) == want


def test_sweep_flag_dests_are_config_fields():
    p = argparse.ArgumentParser()
    cli._add_sweep_flags(p)
    dests = {a.dest for a in p._actions} - {"help", "config"}
    assert dests == set(ExperimentConfig.__dataclass_fields__)


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--kernel", "not-a-kernel"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["sweep", "eig-compare"])
def test_curvature_flag_is_a_usage_error(command, capsys):
    # sweeps fit the core without T; eig-compare's linearized spectrum includes it
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--lin-curvature"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --lin-curvature" in capsys.readouterr().err


def test_config_with_curvature_key_exits_two(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(d=10, lin_curvature=True)))
    for command in ("sweep", "eig-compare"):
        assert cli.main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == "config error: unknown config keys: ['lin_curvature']\n"


SMALL = ["--d", "10", "--n-grid", "20:40:10", "--trials", "1", "--test-points", "100",
         "--noise-draws", "2"]


@pytest.fixture
def no_sampling(monkeypatch):
    """Bad input must be rejected before the first training set is drawn
    (synth mode) and before any kernel is fitted (both modes)."""
    for name in ("sample_dataset", "excess_risk_mc", "spectral_risk_mc", "kernel_matrix"):
        def reached(*args, name=name, **kwargs):
            raise AssertionError(f"{name} reached")
        monkeypatch.setattr(f"krrlab.sweep.{name}", reached)


# Placeholder for the path of a 300 x 20 libsvm file of N(0, 40^2) entries,
# whose plug-in tau (about 1600) underflows the gaussian's beta = -2 h'(2 tau)
UNSCALED = "<unscaled.libsvm>"
REAL_UNSCALED = ["--mode", "real", "--input", UNSCALED, "--d", "20", "--n-grid", "50:150:50",
                 "--trials", "1", "--test-points", "100", "--noise-draws", "2"]


def _write_gaussian_libsvm(directory, x_scale: float, y_scale: float) -> str:
    """A 300 x 20 libsvm file of N(0, 1) features and responses, scaled."""
    rng = np.random.default_rng(0)
    X, y = x_scale * rng.standard_normal((300, 20)), y_scale * rng.standard_normal(300)
    path = directory / "data.libsvm"
    path.write_text("".join(f"{yi:.6g} " + " ".join(f"{j}:{v:.6g}" for j, v in
                                                    enumerate(xi, 1)) + "\n"
                            for xi, yi in zip(X, y)))
    return str(path)


@pytest.fixture(scope="module")
def unscaled_input(tmp_path_factory):
    return _write_gaussian_libsvm(tmp_path_factory.mktemp("unscaled"), 40.0, 1.0)


# Placeholders for the paths of the same file with features x 1e160, whose
# plug-in tau overflows to inf, and x 1e100, whose tau is finite but whose
# trace ratio sums fourth powers that overflow
HUGE = "<huge.libsvm>"
REAL_HUGE = [HUGE if a == UNSCALED else a for a in REAL_UNSCALED]
LARGE = "<large.libsvm>"
REAL_LARGE = [LARGE if a == UNSCALED else a for a in REAL_UNSCALED]


@pytest.fixture(scope="module")
def huge_input(tmp_path_factory):
    return _write_gaussian_libsvm(tmp_path_factory.mktemp("huge"), 1e160, 1.0)


@pytest.fixture(scope="module")
def large_input(tmp_path_factory):
    return _write_gaussian_libsvm(tmp_path_factory.mktemp("large"), 1e100, 1.0)


@pytest.mark.parametrize("argv,field", [
    (["sweep", *SMALL, "--source-r", "2"], "source_r"),
    (["sweep", *SMALL, "--d", "1"], "d must be >= 2"),
    (["sweep", *SMALL, "--decay", "polynomial"], "requires a > 1/2, got a=None"),
    (["sweep", *SMALL, "--kernel", "polynomial", "--degree", "0"], "degree"),
    (["eig-compare", *SMALL, "--n", "0"], "n >= 1"),
    (["eig-compare", *SMALL, "--k", "0"], "k >= 1"),
    (["sweep", *SMALL, "--standardize"], "standardize applies to real mode only"),
    (["sweep", *SMALL, "--input", FIXTURE], "input_path applies to real mode only"),
    (["eig-compare", *SMALL, "--standardize"], "standardize applies to real mode only"),
    (["eig-compare", *SMALL, "--input", FIXTURE], "input_path applies to real mode only"),
    (["eig-compare", *SMALL, "--true-kernel", "--gamma-override", "0"],
     "gamma_override applies to linearized fits only"),
    (["sweep", *REAL_UNSCALED], "beta > 0, got 0.000e+00 at tau="),
    (["sweep", *REAL_UNSCALED, "--true-kernel"], "standardizing the features"),
    (["eig-compare", *REAL_UNSCALED], "beta > 0, got 0.000e+00 at tau="),
    (["sweep", *SMALL, "--sigma", "1e160"], "sigma must lie in [0, 1e+150]"),
    (["sweep", *SMALL, "--fixed-lambda", "1e155"], "fixed_lambda must lie in [0, 1e+150]"),
    (["sweep", *SMALL, "--gamma-override", "1e200"], "gamma_override must lie in [0, 1e+150]"),
    (["sweep", *REAL_HUGE], "reach 3.9e+160, above 9.15e+75, where the plug-in tau"),
    (["sweep", *REAL_HUGE, "--true-kernel"], "--standardize"),
    (["sweep", *REAL_LARGE], "where the plug-in tau and trace ratio overflow at d=20"),
    (["eig-compare", *REAL_LARGE, "--standardize"],
     "reach 3.9e+100, above 9.15e+75, where the plug-in tau and trace ratio overflow at d=20; "
     "eig-compare fits the file's raw rows whatever --standardize says"),
], ids=["source-r", "d", "decay-a", "degree", "eig-n", "eig-k", "synth-standardize",
        "synth-input", "eig-synth-standardize", "eig-synth-input", "eig-exact-gamma",
        "real-beta-underflow", "exact-real-beta-underflow", "eig-real-beta-underflow",
        "sigma-limit", "fixed-lambda-limit", "gamma-override-limit", "real-tau-overflow",
        "exact-real-tau-overflow", "real-trace-ratio-overflow", "eig-raw-trace-ratio-overflow"])
@pytest.mark.filterwarnings("error")
def test_bad_flags_exit_two_before_sampling(argv, field, no_sampling, unscaled_input,
                                            huge_input, large_input, capsys):
    argv = [{UNSCALED: unscaled_input, HUGE: huge_input, LARGE: large_input}.get(a, a)
            for a in argv]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--kernel", "polynomial", "--degree", "1030", "--d", "20", "--n-grid", "5:25:5",
     "--trials", "1", "--test-points", "100", "--noise-draws", "2"],
    ["sweep", "--kernel", "exponential_inner", *REAL_UNSCALED],
], ids=["synth-polynomial-1030", "real-exponential-inner"])
@pytest.mark.filterwarnings("error")
def test_overflowing_linearization_exits_two(argv, unscaled_input, capsys):
    # h(tau) overflows, so gamma would be inf: (1 + tau)^1030 at the synthetic
    # tau, and exp(2 tau) at the plug-in tau (about 1600) of the N(0, 40^2) file
    argv = [unscaled_input if a == UNSCALED else a for a in argv]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: linearization requires finite alpha, beta, gamma")
    assert "gamma=inf at tau=" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("extra", [[], ["--standardize"]], ids=["raw", "standardize"])
@pytest.mark.filterwarnings("error")
def test_real_eig_compare_refuses_its_raw_rows_without_advising_standardize(
        extra, large_input, capsys):
    # eig-compare fits the file's raw rows whatever --standardize says, so the
    # refusal is its own, and advising the flag would not help
    argv = [large_input if a == LARGE else a for a in REAL_LARGE]
    assert cli.main(["eig-compare", *argv, *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: real-mode features reach 3.9e+100")
    assert "eig-compare fits the file's raw rows" in err
    assert "--standardize rescales" not in err and len(err.splitlines()) == 1


def test_standardize_removes_the_beta_underflow(unscaled_input, capsys):
    argv = [unscaled_input if a == UNSCALED else a for a in REAL_UNSCALED]
    assert cli.main(["sweep", *argv, "--standardize"]) == 0
    assert "sweep done: 3 grid points" in capsys.readouterr().out


@pytest.mark.filterwarnings("error")
def test_standardize_rescales_huge_features_exactly(unscaled_input, huge_input, tmp_path):
    # z-scores are scale-free: features x 1e160 standardize without overflow,
    # to the pool of the same file at x 40 up to the files' 6 printed digits
    outs = []
    for path in (unscaled_input, huge_input):
        outs.append(str(tmp_path / f"{len(outs)}.csv"))
        argv = [path if a == UNSCALED else a for a in REAL_UNSCALED]
        assert cli.main(["sweep", *argv, "--standardize", "--out", outs[-1]]) == 0
    a, b = (np.loadtxt(out, delimiter=",", skiprows=1) for out in outs)
    assert np.all(np.isfinite(b[:, 1:4]))
    np.testing.assert_allclose(b, a, rtol=1e-4)


@pytest.mark.parametrize("argv,named", [
    (["sweep", "--kernel", "linear"], "kernel"),
    (["sweep", "--true-kernel", "--out", "ignored.csv"], "output_path, use_linearized"),
    (["eig-compare", "--d", "30", "--n", "20"], "d"),
], ids=["sweep", "sweep-two", "eig-compare"])
def test_config_with_sweep_flags_exits_two(argv, named, tmp_path, no_sampling, capsys):
    # the flags used to be ignored without a word
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(d=40)))
    assert cli.main([*argv[:1], "--config", str(path), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --config takes no other sweep flag; "
                          f"set {named} in {path} instead")


def test_eig_compare_config_keeps_its_own_flags(tmp_path):
    out = str(tmp_path / "eig.csv")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(kernel="polynomial", use_linearized=False, d=40,
                                    n_grid=[60])))
    assert cli.main(["eig-compare", "--config", str(path), "--n", "50", "--k", "10",
                     "--eig-out", out]) == 0
    assert len(Path(out).read_text().splitlines()) == 11


@pytest.mark.parametrize("sigma", ["0", "1"])
@pytest.mark.parametrize("flags", [
    ["--kernel", "linear", "--true-kernel", "--cbar", "0"],
    ["--cbar", "0", "--gamma-override", "0"],
    ["--fixed-lambda", "0", "--gamma-override", "0"]],
    ids=["linear-cbar", "cbar-gamma", "fixed-lambda-gamma"])
def test_ridgeless_sweeps_run_with_and_without_noise(flags, sigma, tmp_path, capsys):
    # n*lam + gamma = 0: the fit is the min-norm interpolant, V1 takes its
    # filter, and V2 is inf with noise (so `plot` cannot draw it) and 0 without
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", *SMALL, *flags, "--sigma", sigma, "--out", str(out)]) == 0
    assert "sweep done" in capsys.readouterr().out
    noisy = sigma == "1"
    rows = np.genfromtxt(out, delimiter=",", names=True)
    assert np.all(rows["v2_bound"] == (np.inf if noisy else 0.0))
    assert np.all(np.isfinite(rows["v1_bound"]))
    plot = cli.main(["plot", "--csv", str(out), "--columns", "v2_bound",
                     "--out", str(tmp_path / "v2.svg")])
    assert plot == (3 if noisy else 0)


@pytest.mark.parametrize("text,field", [
    ('{"n_grid": 5}', "n_grid"), ('{"output_path": 5}', "output_path"),
    ('{"n_grid": [10, 20.5]}', "n_grid"), ("{", "not valid JSON"),
    (b'{"kernel": "\xe9"}', "not valid JSON"), ("[40]", "must be a JSON object")],
    ids=["grid", "output", "grid-float", "json", "utf8", "not-an-object"])
def test_bad_config_file_exits_two(text, field, tmp_path, no_sampling, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert cli.main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err


@pytest.mark.parametrize("k", ["400", "10"])
def test_eig_compare_n_beyond_rows_exits_two(k, capsys):
    rc = cli.main(["eig-compare", "--mode", "real", "--input", FIXTURE, "--d", "24",
                   "--n-grid", "80:80:1", "--n", "5000", "--k", k])
    assert rc == 2
    err = capsys.readouterr().err
    assert "n = 5000" in err and "has 200" in err


@pytest.mark.parametrize("argv,field", [
    (["bounds", "--decay", "harmonic", "--n", "0"], "n=0"),
    (["bounds", "--decay", "harmonic", "--cbar", "0", "--gamma", "0"], "cbar = 0 and gamma = 0"),
    (["bounds", "--decay", "polynomial", "--a", "0.25"], "a=0.25"),
    (["bounds", "--decay", "harmonic", "--theta", "nan"], "theta"),
    (["bounds", "--decay", "harmonic", "--sigma", "nan"], "--sigma"),
    (["bounds", "--decay", "harmonic", "--sigma", "-2"], "--sigma"),
    (["bounds", "--decay", "harmonic", "--beta", "-1"], "--beta"),
    (["bounds", "--decay", "harmonic", "--beta", "inf"], "--beta"),
    (["bounds", "--decay", "harmonic", "--gamma", "inf"], "--gamma"),
    (["bounds", "--decay", "harmonic", "--cbar", "inf"], "--cbar"),
    (["bounds", "--decay", "harmonic", "--sigma", "1e200"], "--sigma must lie in [0, 1e+150]"),
    (["bounds", "--decay", "harmonic", "--gamma", "1e200"], "--gamma must lie in [0, 1e+150]"),
    (["bounds", "--decay", "polynomial", "--n", "100000", "--theta", "0", "--cbar", "1e149"],
     "b = n*lambda + gamma must be <= 1e+150, got 1e+154"),
    (["synth", "--n", "0"], "n must be >= 1"),
    (["bounds", "--decay", "exponential", "--a", "inf"], "a=inf"),
    (["synth", "--n", "5", "--decay", "exponential"], "a=None"),
    (["synth", "--d", "5", "--n", "3", "--decay", "exponential", "--a", "inf"], "a=inf"),
], ids=["bounds-n", "bounds-b", "bounds-a", "bounds-theta", "bounds-sigma-nan",
        "bounds-sigma-negative", "bounds-beta-negative", "bounds-beta-inf", "bounds-gamma-inf",
        "bounds-cbar-inf", "bounds-sigma-limit", "bounds-gamma-limit", "bounds-b-limit",
        "synth-n", "bounds-a-inf", "synth-a", "synth-a-inf"])
def test_bad_handler_flags_exit_two(argv, field, tmp_path, capsys):
    out = tmp_path / "data.libsvm"
    if argv[0] == "synth":
        argv = [*argv, "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert not out.exists()


@pytest.mark.parametrize("extra,code", [([], 0), (["--a", "inf"], 2)], ids=["ok", "a-inf"])
def test_python_dash_m_runs_the_cli(extra, code):
    decay = "exponential" if extra else "harmonic"
    proc = subprocess.run([sys.executable, "-m", "krrlab", "bounds", "--decay", decay, *extra],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert "exact N =" in proc.stdout
    else:
        assert proc.stderr.startswith("config error:") and "a=inf" in proc.stderr


@pytest.mark.parametrize("a", ["0.51", "0.5001"])
def test_polynomial_bounds_near_half_are_silent(a):
    # the decay constant is exact here; a quadrature did not converge and warned
    proc = subprocess.run([sys.executable, "-m", "krrlab", "bounds", "--decay", "polynomial",
                           "--a", a], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "bound N =" in proc.stdout


def test_out_of_regime_peak_is_reported_not_fatal(capsys):
    rc = cli.main(["bounds", "--decay", "polynomial", "--a", "1", "--theta", "0.9",
                   "--cbar", "0.5", "--gamma", "0.1"])
    assert rc == 0
    assert "peak n_*: out of regime" in capsys.readouterr().out


def test_peak_beyond_the_float_range_is_reported_not_fatal(capsys):
    rc = cli.main(["bounds", "--decay", "polynomial", "--a", "100", "--theta", "0.994",
                   "--gamma", "5"])
    assert rc == 0
    assert "peak n_* = inf" in capsys.readouterr().out.splitlines()


def test_harmonic_bounds_print_the_numeric_peak_only(capsys):
    assert cli.main(["bounds", "--decay", "harmonic"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert any(line.startswith("numeric peak over 10-point grid") for line in out)
    assert not any(line.startswith("peak n_*") for line in out)


def test_scales_at_the_limit_are_accepted(capsys):
    assert cli.main(["bounds", "--decay", "harmonic", "--sigma", "1e150", "--cbar", "0",
                     "--gamma", "1e150"]) == 0
    assert "b = n*lambda + gamma = 1e+150" in capsys.readouterr().out
    assert cli.main(["sweep", *SMALL, "--sigma", "1e150", "--gamma-override", "1e150"]) == 0
    assert cli.main(["sweep", *SMALL, "--sigma", "1e150", "--fixed-lambda", "1e150",
                     "--true-kernel"]) == 0


@pytest.mark.filterwarnings("error")
def test_non_finite_sweep_curves_are_reported_not_fatal(tmp_path, capsys):
    # responses x 1e200 square to inf: bias and risk are written as inf and
    # the stderr as nan, and the risk curve has no shape, without a warning
    path = _write_gaussian_libsvm(tmp_path, 1.0, 1e200)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--mode", "real", "--input", path, "--d", "20",
                     "--n-grid", "50:150:25", "--trials", "1", "--test-points", "100",
                     "--noise-draws", "2", "--out", str(out)]) == 0
    assert "risk n/a (non-finite values)" in capsys.readouterr().out
    rows = np.genfromtxt(out, delimiter=",", names=True)
    assert np.all(np.isinf(rows["risk_emp"])) and np.all(np.isnan(rows["stderr"]))


@pytest.mark.parametrize("content,message", [
    (b"1 1:1\n2 1:\xff\n", "non-ASCII byte at line 2"),
    (b"1 1:1\nnan 1:2\n", "non-finite label at line 2"),
    (None, "Is a directory"),
], ids=["non-ascii", "nan-label", "directory"])
def test_malformed_data_exits_three(content, message, tmp_path, capsys):
    path = tmp_path
    if content is not None:
        path = tmp_path / "bad.libsvm"
        path.write_bytes(content)
    rc = cli.main(["sweep", "--mode", "real", "--input", str(path), "--d", "4",
                   "--n-grid", "5:10:5"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and message in err


@pytest.mark.parametrize("content", [b"n,var_emp\n1,0.5\n2,abc\n", b"n,var_emp\n1,0.5\n2,\xe9\n",
                                     b"n,var_emp\n1,0.5\n2\n", b"n,var_emp\n1,0.5\n2,nan\n",
                                     b"n,var_emp\n1,0.5\ninf,0.7\n"],
                         ids=["text", "non-ascii", "short", "nan", "inf"])
def test_malformed_plot_csv_exits_three(content, tmp_path, capsys):
    csv = tmp_path / "s.csv"
    csv.write_bytes(content)
    rc = cli.main(["plot", "--csv", str(csv), "--columns", "var_emp",
                   "--out", str(tmp_path / "s.svg")])
    assert rc == 3
    assert "non-numeric" in capsys.readouterr().err
    assert not (tmp_path / "s.svg").exists()


@pytest.mark.parametrize("command", ["synth", "sweep", "eig-compare", "plot"])
def test_output_flag_creates_parent_directory(command, tmp_path):
    csv = tmp_path / "s.csv"
    csv.write_text("n,var_emp\n1,0.5\n2,0.7\n")
    argv = {
        "synth": ["synth", "--d", "10", "--n", "20", "--out"],
        "sweep": ["sweep", *SMALL, "--out"],
        "eig-compare": ["eig-compare", "--mode", "real", "--input", FIXTURE, "--d", "24",
                        "--n", "40", "--k", "5", "--n-grid", "40:40:1", "--eig-out"],
        "plot": ["plot", "--csv", str(csv), "--columns", "var_emp", "--out"],
    }[command]
    out = tmp_path / "new" / "dir" / "result.out"
    assert cli.main([*argv, str(out)]) == 0
    assert out.stat().st_size > 0


def test_degree_one_polynomial_real_sweep_runs(capsys):
    # gamma of the affine profile 1 + t is 0; roundoff must not reject it
    rc = cli.main(["sweep", "--mode", "real", "--input", FIXTURE, "--d", "24",
                   "--n-grid", "50:100:50", "--test-points", "100",
                   "--kernel", "polynomial", "--degree", "1"])
    assert rc == 0
    assert "sweep done: 2 grid points" in capsys.readouterr().out


def test_bounds_prints_the_grid_it_searched(capsys):
    # n = 15 gives step 1, so the numeric peak searches 15 points, not 10
    rc = cli.main(["bounds", "--decay", "polynomial", "--a", "1", "--rstar", "100000",
                   "--n", "15", "--cbar", "0.01", "--theta", "0.2", "--gamma", "5"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert "peak n_* = 1552.57" in out
    assert any(line.startswith("numeric peak over 15-point grid n = 1..15 (step 1): n=15, V1=")
               for line in out)
