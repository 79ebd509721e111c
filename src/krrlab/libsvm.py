"""Reader/writer for the sparse libsvm text format.

Each nonempty line is `label idx:val idx:val ...` with 1-based, strictly
increasing indices.  Parsing produces a dense matrix with zeros at absent
indices; export writes only nonzero entries with round-trip-exact floats.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import DataFormatError
from .kernels import Dataset

__all__ = ["parse_libsvm", "export_libsvm"]


def _token_error(tokens: list, lineno: int, d: int) -> DataFormatError:
    """The error of the first bad `idx:val` token of a line, checked token by token."""
    prev = 0
    for tok in tokens:
        idx_s, _, val_s = tok.partition(":")
        if not val_s:
            return DataFormatError(f"malformed token {tok!r} at line {lineno}")
        try:
            idx = int(idx_s)
            val = float(val_s)
        except ValueError:
            return DataFormatError(f"malformed token {tok!r} at line {lineno}")
        if idx <= prev:
            return DataFormatError(f"non-increasing index at line {lineno}")
        if idx > d:
            return DataFormatError(f"index {idx} out of range (d={d}) at line {lineno}")
        if not math.isfinite(val):
            return DataFormatError(f"non-finite value at line {lineno}")
        prev = idx
    raise AssertionError(f"line {lineno} has no bad token")


def parse_libsvm(path: str, d: int) -> Dataset:
    """Parse a libsvm file into a dense n x d Dataset; blank lines are skipped.

    One pass, line by line: each line's indices and values are converted
    together and checked at once; only a line that fails is walked token by
    token, to name its first bad token.
    """
    if d < 1:
        raise DataFormatError("d must be >= 1")
    rows = []
    labels = []
    # surrogateescape keeps a non-ASCII byte (as a surrogate) so its line can be named
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                raise DataFormatError(f"non-ASCII byte at line {lineno}")
            tokens = raw.split()
            if not tokens:
                continue
            try:
                label = float(tokens[0])
            except ValueError:
                raise DataFormatError(f"bad label {tokens[0]!r} at line {lineno}") from None
            if not math.isfinite(label):
                raise DataFormatError(f"non-finite label at line {lineno}")
            x = np.zeros(d)
            if len(tokens) > 1:
                pairs = [tok.partition(":") for tok in tokens[1:]]
                try:
                    idx = list(map(int, [p[0] for p in pairs]))
                    vals = list(map(float, [p[2] for p in pairs]))
                except ValueError:
                    raise _token_error(tokens[1:], lineno, d) from None
                if not (0 < idx[0] and idx[-1] <= d and idx == sorted(set(idx))
                        and all(map(math.isfinite, vals))):
                    raise _token_error(tokens[1:], lineno, d)
                x[np.subtract(idx, 1)] = vals
            rows.append(x)
            labels.append(label)
    if not rows:
        raise DataFormatError(f"no records in {path}")
    return Dataset(np.vstack(rows), np.asarray(labels))


def export_libsvm(data: Dataset, path: str) -> None:
    """Write a Dataset in libsvm format, creating the parent directory of
    `path`; zeros are omitted, floats round-trip."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        for i in range(data.n):
            parts = [format(data.responses[i], ".17g")]
            row = data.features[i]
            for j in np.nonzero(row)[0]:
                parts.append(f"{j + 1}:{format(row[j], '.17g')}")
            fh.write(" ".join(parts) + "\n")
