import json
import os

import numpy as np
import pytest

import krrlab.cli as cli
from krrlab import parse_libsvm
from krrlab.errors import NumericalError

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "sample200.libsvm")


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
    assert open(svg).read().count("<polyline") == 3


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
    assert "spearman" in capsys.readouterr().out
    assert len(open(out).read().splitlines()) == 21


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


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--kernel", "not-a-kernel"])
    assert exc.value.code == 2
