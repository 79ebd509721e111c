"""Collects the acceptance criterion report lines and prints them at the end
of the run, whether or not stdout capture is on, and holds the dense V1
reference spectrum that several test modules import."""

import numpy as np

from krrlab import LinModel, build_lin_kernel

CRITERION_LINES = []


def dense_v1_spectrum(params, data):
    """The n x n reference V1 spectrum: alpha 11^T + beta XX^T/d (a zero
    gamma_override adds nothing), clipped at 0 and sorted descending."""
    K = build_lin_kernel(LinModel(params, gamma_override=0.0), data)
    return np.maximum(np.linalg.eigvalsh(K)[::-1], 0.0)


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in CRITERION_LINES:
        terminalreporter.write_line(line)
