"""Eigenvalue decay of a kernel matrix versus its high-dimensional linearization.

In high dimension a smooth kernel matrix shares its eigenvalue decay with
the scaled Gram matrix beta * XX^T/d (plus the implicit ridge gamma).  This
script builds both spectra on synthetic harmonic-decay data and prints them
side by side, with the Weyl interlacing report, whose bracket is set by the
inertia of the rank <= 3 perturbation alpha 11^T + T (one-step for
inner-product kernels).

Run:  python demos/eigenvalue_comparison.py
"""

from krrlab import ExperimentConfig, eig_compare

for kernel, degree in (("polynomial", 3), ("gaussian", 3)):
    config = ExperimentConfig(
        mode="synth", kernel=kernel, degree=degree, use_linearized=False,
        decay="harmonic", d=300, n_grid=[150], seed=1, trials=1)
    res = eig_compare(config, n=150, k=12)
    print(f"== {kernel} kernel on harmonic synthetic data (d=300, n=150)")
    print("   rank   true K     linearized  scaled Gram")
    for i, (t, l, g) in enumerate(zip(res.eig_true, res.eig_lin,
                                      res.eig_scaled_gram), start=1):
        tag = "  <- top eigenvalue, scale set by the mean component" if i == 1 else ""
        print(f"   {i:4d}   {t:9.4f}  {l:9.4f}   {g:9.4f}{tag}")
    print(f"   interlacing violations: {res.interlacing_violations} "
          f"(max {res.interlacing_max_violation:.2e})")
    if kernel == "gaussian":
        print("   note: the radial perturbation alpha 11^T + T has rank <= 3 and")
        print("   inertia (2, 1), so the check uses Weyl's bracket")
        print("   l_{i+1}(scaled Gram) <= l_i(K_lin) <= l_{i-2}(scaled Gram)")
    print()
