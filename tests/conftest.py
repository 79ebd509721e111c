"""Collects the acceptance criterion report lines and prints them at the end
of the run, whether or not stdout capture is on, and holds the dense
references (the V1 spectrum, the matrix K_lin + T) that several test
modules import."""

import dataclasses

import numpy as np

from krrlab import build_lin_kernel

CRITERION_LINES = []


def dense_v1_spectrum(params, data):
    """The n x n reference V1 spectrum: alpha 11^T + beta XX^T/d (a zero
    gamma adds nothing), clipped at 0 and sorted descending."""
    K = build_lin_kernel(dataclasses.replace(params, gamma=0.0), data)
    return np.maximum(np.linalg.eigvalsh(K)[::-1], 0.0)


def dense_lin_with_t(params, data):
    """The n x n matrix K_lin + T of `params` on a dataset, entry by entry:
    the Gram matrix `build_lin_kernel` builds, plus, for a radial kernel,
    T = h' A + h''/2 (A ∘ A) with A = psi 1^T + 1 psi^T,
    psi_i = ||x_i||^2/d - tau."""
    X = data.features
    K = build_lin_kernel(params, data)
    if params.family == "radial":
        psi = np.einsum("ij,ij->i", X, X) / X.shape[1] - params.tau
        A = psi[:, None] + psi[None, :]
        K += params.h1_pivot * A + 0.5 * params.h2_pivot * (A * A)
    return K


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in CRITERION_LINES:
        terminalreporter.write_line(line)
