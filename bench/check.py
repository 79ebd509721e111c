"""Correctness checks on the outputs of a benchmark run.

An operation is one CSV grid row, one eig-compare spectrum, or the SVG plot.
It fails when it raised, is non-finite, differs from the same operation in
another pass of the run, disagrees with the independent route below, or, at
`REFERENCE_SEED`, disagrees with the reference outputs in `reference/`.

The independent route recomputes `bias_emp`, `var_emp` and `v1_bound` of
one grid row per sweep (row `(seed + sweep index) mod len(grid)`): the same
public sampler stream, the explicit system `K + n*lambda*I`, a dense
`scipy.linalg.solve` instead of the Cholesky path, and an explicit
`eigvalsh` spectrum for V1.  Values agree when their relative difference is
at most `RTOL`; a spectral rewrite of the sweep that agrees to ~1e-15 passes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.spatial.distance

REFERENCE_SEED = 1
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Largest disagreement seen between the two routes over seeds 2 and 5 was
# 4e-10 (fixed lambda = 1e-5 at n = 1000, a nearly singular system); on
# every other sweep it was below 3e-15.
RTOL = 1e-7
CHECKED_COLUMNS = ("bias_emp", "var_emp", "v1_bound")


def close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= RTOL * max(abs(a), abs(b))


def _csv_rows(csv_text: str) -> list:
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def _lam(cfg, n: int):
    """(reported lambda, lambda the solve scales by n) as run_sweep sets them."""
    if cfg.fixed_lambda is not None:
        return cfg.fixed_lambda, cfg.fixed_lambda / n
    lam = cfg.cbar * float(n) ** (-cfg.theta)
    return lam, lam


def _trace_ratio(X: np.ndarray) -> float:
    # bias-corrected tr(S^2) - (tr S)^2/n from the d x d sample covariance
    n, d = X.shape
    Xc = X - X.mean(axis=0)
    S = Xc.T @ Xc / max(n - 1, 1)
    return max(float(np.sum(S * S)) - float(np.trace(S)) ** 2 / n, 0.0) / d ** 2


def _solve_row(X, clean, Q, clean_test, K, cross, ridge, params, gamma, sigma):
    n, d = X.shape
    M = K + ridge * np.eye(n)
    sol = scipy.linalg.solve(M, np.column_stack([clean, cross.T]))
    bias = float(np.mean((cross @ sol[:, 0] - clean_test) ** 2))
    var = float(sigma ** 2 * np.mean(np.sum(sol[:, 1:] ** 2, axis=0)))
    ev = np.maximum(np.linalg.eigvalsh(params.beta * (X @ X.T) / d + params.alpha), 0.0)
    b = ridge + gamma
    v1 = float(sigma ** 2 * params.beta / d * np.sum(ev / (b + ev) ** 2))
    return bias, var, v1


def independent_row(krrlab, cfg, n: int, real=None) -> dict:
    """bias_emp, var_emp and v1_bound of grid row `n`, recomputed densely."""
    spec = krrlab.kernel_by_name(cfg.kernel, cfg.degree)
    _, lam = _lam(cfg, n)
    vals = []
    if cfg.mode == "synth":
        cov = krrlab.make_covariance(cfg.d, cfg.decay, cfg.a)
        target = krrlab.TargetSpec(noise_sigma=cfg.sigma)
        Q = krrlab.sample_features(cov, cfg.test_points,
                                   np.random.default_rng([cfg.seed, 7, 1]))
        clean_test = krrlab.evaluate_target(target, Q)
        params = krrlab.linearize_params(spec, cov.tau, cov.trace_ratio)
        gamma = cfg.gamma_override if cfg.gamma_override is not None else params.gamma
        for t in range(cfg.trials):
            data, clean = krrlab.sample_dataset(cov, n, target,
                                                np.random.default_rng([cfg.seed, n, t]))
            X = data.features
            K = params.alpha + params.beta * (X @ X.T) / cfg.d + gamma * np.eye(n)
            cross = params.h_pivot + params.beta * (Q @ X.T) / cfg.d
            vals.append(_solve_row(X, clean, Q, clean_test, K, cross, n * lam, params,
                                   gamma, cfg.sigma))
    else:
        # real mode, exact gaussian kernel, from the arrays the input file
        # was written from rather than from the parser
        X_all = np.asarray(real.features, dtype=float)
        y_all = np.asarray(real.responses, dtype=float)
        if cfg.standardize:
            sd = X_all.std(axis=0)
            sd[sd == 0] = 1.0
            X_all = (X_all - X_all.mean(axis=0)) / sd
        rows = X_all.shape[0]
        m_test = min(cfg.test_points, rows - cfg.grid[-1])
        for t in range(cfg.trials):
            perm = np.random.default_rng([cfg.seed, 900, t]).permutation(rows)
            X, clean = X_all[perm[:n]], y_all[perm[:n]]
            Q, clean_test = X_all[perm[rows - m_test:]], y_all[perm[rows - m_test:]]
            d = X.shape[1]
            K = np.exp(-scipy.spatial.distance.cdist(X, X, "sqeuclidean") / d)
            cross = np.exp(-scipy.spatial.distance.cdist(Q, X, "sqeuclidean") / d)
            tau = float(np.mean(np.sum(X * X, axis=1))) / d
            params = krrlab.linearize_params(spec, tau, _trace_ratio(X))
            vals.append(_solve_row(X, clean, Q, clean_test, K, cross, n * lam, params,
                                   params.gamma, cfg.sigma))
    mean = np.mean(vals, axis=0)
    return dict(zip(CHECKED_COLUMNS, map(float, mean)))


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def reference_outputs(out) -> dict:
    """The comparable text of one pass: each sweep's CSV and the eig CSV."""
    return {"sweeps": [s[1] for s in out.sweeps],
            "eig": out.eig.csv_text if out.eig is not None else None}


def _spectra(eig) -> list:
    return [eig.eig_true, eig.eig_lin, eig.eig_scaled_gram]


def _eig_columns(csv_text: str) -> list:
    rows = _csv_rows(csv_text)
    return [np.array([r[c] for r in rows]) for c in ("eig_true", "eig_lin", "eig_scaled_gram")]


def check(krrlab, wl, passes: list, seed: int, micro: bool):
    """Return (attempted, failed, problems) over every pass of the run."""
    problems = []
    ref = None
    if seed == REFERENCE_SEED and not micro:
        ref = json.loads(reference_path(wl.name).read_text())
    attempted = failed = 0

    for i, cfg in enumerate(wl.sweeps):
        nrows = len(cfg.grid)
        attempted += nrows * len(passes)
        ok = [o.sweeps[i] for o in passes if not isinstance(o.sweeps[i], Exception)]
        if not ok:
            failed += nrows * len(passes)
            problems.append(f"sweep {i}: raised {passes[0].sweeps[i]!r}")
            continue
        canon_text = ok[0][1]
        canon_lines = canon_text.strip().splitlines()[1:]
        rows = _csv_rows(canon_text)
        if len(rows) != nrows:
            failed += nrows * len(passes)
            problems.append(f"sweep {i}: {len(rows)} rows, expected {nrows}")
            continue
        bad = {r for r, row in enumerate(rows)
               if not all(math.isfinite(v) for v in row.values())}
        r = (seed + i) % nrows
        want = independent_row(krrlab, cfg, cfg.grid[r], wl.real)
        for col, v in want.items():
            got = getattr(ok[0][0][r], col)
            if not close(got, v):
                bad.add(r)
                problems.append(f"sweep {i} n={cfg.grid[r]} {col}: {got!r} vs "
                                f"independent {v!r}")
        if ref is not None:
            for r, (row, ref_row) in enumerate(zip(rows, _csv_rows(ref["sweeps"][i]))):
                diff = [c for c in row if not close(row[c], ref_row[c])]
                if diff:
                    bad.add(r)
                    problems.append(f"sweep {i} n={cfg.grid[r]}: {diff} differ from reference")
        for p, o in enumerate(passes):
            s = o.sweeps[i]
            if isinstance(s, Exception):
                failed += nrows
                problems.append(f"pass {p} sweep {i}: raised {s!r}")
                continue
            lines = s[1].strip().splitlines()[1:]
            changed = {r for r in range(nrows) if lines[r:r + 1] != canon_lines[r:r + 1]}
            if changed:
                problems.append(f"pass {p} sweep {i}: rows {sorted(changed)} differ between passes")
            failed += len(bad | changed)

    if wl.eig_n is not None:
        attempted += 3 * len(passes)
        ok = [o.eig for o in passes if not isinstance(o.eig, Exception)]
        canon = _spectra(ok[0]) if ok else None
        bad = set()
        if canon is not None:
            bad = {k for k, s in enumerate(canon) if not np.all(np.isfinite(s))}
            if ref is not None:
                for k, (s, r) in enumerate(zip(_eig_columns(ok[0].csv_text),
                                               _eig_columns(ref["eig"]))):
                    if len(s) != len(r) or not all(close(a, b) for a, b in zip(s, r)):
                        bad.add(k)
                        problems.append(f"eig spectrum {k} differs from reference")
        for p, o in enumerate(passes):
            if isinstance(o.eig, Exception):
                failed += 3
                problems.append(f"pass {p} eig_compare: raised {o.eig!r}")
                continue
            changed = {k for k, s in enumerate(_spectra(o.eig))
                       if not np.array_equal(s, canon[k])}
            failed += len(bad | changed)

    if wl.plot_path is not None:
        attempted += len(passes)
        first = next((o.plot for o in passes if isinstance(o.plot, bytes)), None)
        for p, o in enumerate(passes):
            good = (isinstance(o.plot, bytes) and o.plot == first
                    and o.plot.startswith(b"<svg") and o.plot.rstrip().endswith(b"</svg>"))
            if not good:
                failed += 1
                problems.append(f"pass {p} plot: bad output {str(o.plot)[:80]!r}")
    return attempted, failed, problems


def identity_z_max(passes: list) -> float:
    """max |risk - bias - var| / stderr over the rows of the first pass."""
    z = 0.0
    for s in passes[0].sweeps:
        if isinstance(s, Exception):
            continue
        for p in s[0]:
            if p.mc_stderr > 0:
                z = max(z, abs(p.risk_emp - p.bias_emp - p.var_emp) / p.mc_stderr)
    return z
