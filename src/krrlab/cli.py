"""Command-line harness.

Subcommands: synth (generate a dataset, export libsvm), sweep (risk-curve
experiment, CSV output), eig-compare (spectra of K vs its linearization),
bounds (print the closed-form bound values and peaks for given parameters),
plot (CSV columns -> SVG).  `--config path.json` takes the place of the sweep
flags: giving both is a configuration error.

Exit codes: 0 success, 2 configuration error (ConfigError, raised where the
input enters), 3 data error (DataFormatError or any OSError), 4 numerical
failure.  Any other exception is a bug and ends with a traceback.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import ConfigError, DataFormatError, NumericalError
from .libsvm import export_libsvm
from .spectral import (DECAY_KINDS, DecaySpec, bound_N, exp_monotone_condition,
                       generate_decay_spectrum, numeric_peak, peak_point,
                       quantity_N)
from .svgplot import emit_plot
from .sweep import KERNELS, SCALE_LIMIT, ExperimentConfig, classify_curve, eig_compare, run_sweep
from .synth import COV_KINDS, TargetSpec, make_covariance, sample_dataset

__all__ = ["main"]


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    """Flags named after `ExperimentConfig` fields; an unset flag keeps the
    field's default (the parser is built with argument_default=SUPPRESS)."""
    p.add_argument("--config", default=None, help="JSON config, in place of the other sweep flags")
    p.add_argument("--mode", choices=["synth", "real"])
    p.add_argument("--kernel", choices=KERNELS)
    p.add_argument("--degree", type=int)
    p.add_argument("--true-kernel", dest="use_linearized", action="store_false",
                   help="fit the exact kernel instead of its linearization")
    p.add_argument("--lin-curvature", action="store_true",
                   help="include the radial curvature matrix T in linearized fits")
    p.add_argument("--gamma-override", type=float)
    p.add_argument("--decay", choices=COV_KINDS)
    p.add_argument("--a", type=float, help="decay parameter")
    p.add_argument("--d", type=int)
    p.add_argument("--n-grid")
    p.add_argument("--cbar", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--fixed-lambda", type=float,
                   help="n-independent ridge: solve (K + lambda I) instead of the schedule")
    p.add_argument("--sigma", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--test-points", type=int)
    p.add_argument("--noise-draws", type=int)
    p.add_argument("--source-r", type=float)
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--input", dest="input_path")
    p.add_argument("--out", dest="output_path")


def _config_from_args(args) -> ExperimentConfig:
    fields = {k: v for k, v in vars(args).items() if k in ExperimentConfig.__dataclass_fields__}
    if not args.config:
        return ExperimentConfig(**fields)
    if fields:
        raise ConfigError(f"--config takes no other sweep flag; set {', '.join(sorted(fields))} "
                          f"in {args.config} instead")
    return ExperimentConfig.from_json(args.config)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _cmd_synth(args) -> int:
    _require(args.n >= 1, f"n must be >= 1, got {args.n}")
    _require(args.seed >= 0, f"seed must be >= 0, got {args.seed}")
    _require(math.isfinite(args.sigma) and args.sigma >= 0,
             f"sigma must be finite and >= 0, got {args.sigma}")
    cov = make_covariance(args.d, args.decay, args.a)
    target = TargetSpec(noise_sigma=args.sigma)
    data, _ = sample_dataset(cov, args.n, target, args.seed)
    export_libsvm(data, args.out)
    print(f"wrote {data.n} x {data.d} dataset to {args.out} "
          f"(decay={args.decay}, tau={cov.tau:g})")
    return 0


def _cmd_sweep(args) -> int:
    config = _config_from_args(args)
    points, _ = run_sweep(config)
    var_shape, risk_shape = (
        "n/a (grid too short)" if len(points) < 5
        else "n/a (non-finite values)" if not all(map(math.isfinite, curve))
        else classify_curve(curve).value
        for curve in ([p.var_emp for p in points], [p.risk_emp for p in points]))
    dest = config.output_path or "(not written)"
    print(f"sweep done: {len(points)} grid points, variance {var_shape}, "
          f"risk {risk_shape}, csv {dest}")
    return 0


def _cmd_eig_compare(args) -> int:
    config = _config_from_args(args)
    res = eig_compare(config, n=args.n, k=args.k, output_path=args.eig_out)
    print(f"eig-compare: interlacing violations={res.interlacing_violations} "
          f"(max {res.interlacing_max_violation:.3e})")
    if args.eig_out:
        print(f"csv {args.eig_out}")
    return 0


def _cmd_bounds(args) -> int:
    decay = DecaySpec(args.decay, args.a, args.rstar)
    _require(args.n >= 1 and args.d >= 1, f"n and d must be >= 1, got n={args.n}, d={args.d}")
    _require(0 <= args.theta <= 1, f"theta must lie in [0, 1], got {args.theta}")
    for flag in ("cbar", "gamma", "sigma"):
        value = getattr(args, flag)
        _require(0 <= value <= SCALE_LIMIT,
                 f"--{flag} must lie in [0, {SCALE_LIMIT:g}], got {value}")
    _require(math.isfinite(args.beta) and args.beta > 0,
             f"--beta must be finite and > 0, got {args.beta}")
    _require(args.cbar > 0 or args.gamma > 0,
             "cbar = 0 and gamma = 0 make b = n*lambda + gamma = 0; make one positive")
    b = args.n * args.cbar * args.n ** (-args.theta) + args.gamma
    _require(b <= SCALE_LIMIT, f"b = n*lambda + gamma must be <= {SCALE_LIMIT:g}, got {b:g}")
    exact = quantity_N(generate_decay_spectrum(decay, args.n), b)
    bnd = bound_N(decay, args.n, b)
    print(f"b = n*lambda + gamma = {b:.6g}")
    print(f"exact N = {exact:.6g}")
    print(f"bound N = {bnd:.6g}")
    if decay.kind == "polynomial":
        try:
            ns = peak_point(decay, args.cbar, args.theta, args.gamma)
            print(f"peak n_* = {ns:.6g}")
        except ConfigError as exc:                # out of regime: no interior peak
            print(f"peak n_*: {exc}")
    step = max(args.n // 10, 1)
    grid = range(step, args.n + 1, step)
    n_at, vmax = numeric_peak(decay, grid, args.d, args.cbar, args.theta,
                              args.gamma, args.beta, args.sigma)
    print(f"numeric peak over {len(grid)}-point grid n = {step}..{grid[-1]} "
          f"(step {step}): n={n_at}, V1={vmax:.6g}")
    if decay.kind == "exponential":
        cond = exp_monotone_condition(args.cbar, args.theta, args.gamma, args.a,
                                      args.rstar)
        print(f"monotone-decrease condition: {cond}")
    return 0


def _cmd_plot(args) -> int:
    emit_plot(args.csv, args.columns.split(","), args.out)
    print(f"wrote {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="krrlab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset as libsvm")
    p.add_argument("--d", type=int, default=500)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--decay", default="harmonic", choices=COV_KINDS)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("sweep", help="risk-curve sweep over a sample-size grid",
                       argument_default=argparse.SUPPRESS)
    _add_sweep_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("eig-compare", help="spectra of K vs its linearization",
                       argument_default=argparse.SUPPRESS)
    _add_sweep_flags(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=60)
    p.add_argument("--eig-out", default=None)
    p.set_defaults(func=_cmd_eig_compare)

    p = sub.add_parser("bounds", help="print spectral bound values")
    p.add_argument("--decay", required=True, choices=DECAY_KINDS)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--rstar", type=int, default=100)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--d", type=int, default=500)
    p.add_argument("--cbar", type=float, default=0.01)
    p.add_argument("--theta", type=float, default=2.0 / 3.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("plot", help="render sweep CSV columns as an SVG chart")
    p.add_argument("--csv", required=True)
    p.add_argument("--columns", required=True, help="comma-separated column names")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
