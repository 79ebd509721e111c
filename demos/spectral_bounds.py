"""The variance-bound machinery on parametric eigenvalue decays.

Shows, for the three decay families: the exact quantity N(b) against its
closed-form upper bound, the effective dimension along the regularization
path, the closed-form peak location of the polynomial decay's curve, the
numeric peak of the variance-bound curve for every decay, and the
monotone-decrease condition for exponential decay.

Run:  python demos/spectral_bounds.py
"""

import numpy as np

from krrlab import (DecaySpec, bound_N, effective_dimension,
                    exp_monotone_condition, generate_decay_spectrum,
                    numeric_peak, peak_point, quantity_N)

n, d = 500, 500
cbar, theta = 0.01, 2 / 3
lam = cbar * n ** (-theta)
b = n * lam

print(f"sample size n={n}, schedule lambda = {lam:.3e}, ridge b = n*lambda = {b:.4f}\n")

decays = [DecaySpec("harmonic", r_star=300),
          DecaySpec("polynomial", a=1.0, r_star=300),
          DecaySpec("exponential", a=0.05, r_star=300)]

for decay in decays:
    spec = generate_decay_spectrum(decay, n)
    exact = quantity_N(spec, b)
    bnd = bound_N(decay, n, b)
    print(f"== {decay.kind} decay (a={decay.a}, rank {decay.r_star})")
    print(f"   exact N(b) = {exact:10.3f}   closed-form bound = {bnd:10.3f} "
          f"({'dominates' if bnd >= exact else 'BELOW the exact sum'})")
    for lam_ed in (1e-3, 1e-1, 10.0):
        print(f"   effective dimension at lambda={lam_ed:g}: "
              f"{effective_dimension(spec, lam_ed):8.2f}")
    if decay.kind == "polynomial":
        try:
            n_star = peak_point(decay, cbar, theta, gamma=0.5)
            print(f"   closed-form peak (gamma=0.5): n_* = {n_star:.2f}")
        except ValueError as exc:
            print(f"   closed-form peak: {exc}")
    grid = list(range(50, 1001, 50))
    n_at, vmax = numeric_peak(decay, grid, d, cbar, theta, 0.0, 1.0, 1.0)
    print(f"   numeric peak of the bound curve over the grid: n = {n_at} "
          f"(V1 = {vmax:.4g})")
    if decay.kind == "exponential":
        cond = exp_monotone_condition(cbar, theta, 0.0, decay.a, decay.r_star)
        print(f"   monotone-decrease condition holds: {cond}")
    print()
