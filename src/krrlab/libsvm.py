"""Reader/writer for the sparse libsvm text format.

Each nonempty line is `label idx:val idx:val ...` with 1-based, strictly
increasing indices.  Parsing produces a dense matrix with zeros at absent
indices; export writes only nonzero entries with round-trip-exact floats.
"""

from __future__ import annotations

import numpy as np

from .errors import DataFormatError
from .kernels import Dataset

__all__ = ["parse_libsvm", "export_libsvm"]


def parse_libsvm(path: str, d: int) -> Dataset:
    """Parse a libsvm file into a dense n x d Dataset; blank lines are skipped."""
    if d < 1:
        raise DataFormatError("d must be >= 1")
    rows = []
    labels = []
    # surrogateescape keeps a non-ASCII byte (as a surrogate) so its line can be named
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                raise DataFormatError(f"non-ASCII byte at line {lineno}")
            line = raw.strip()
            if not line:
                continue
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError:
                raise DataFormatError(f"bad label {tokens[0]!r} at line {lineno}") from None
            if not np.isfinite(label):
                raise DataFormatError(f"non-finite label at line {lineno}")
            x = np.zeros(d)
            prev = 0
            for tok in tokens[1:]:
                idx_s, _, val_s = tok.partition(":")
                if not val_s:
                    raise DataFormatError(f"malformed token {tok!r} at line {lineno}")
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise DataFormatError(f"malformed token {tok!r} at line {lineno}") from None
                if idx <= prev:
                    raise DataFormatError(f"non-increasing index at line {lineno}")
                if idx > d:
                    raise DataFormatError(
                        f"index {idx} out of range (d={d}) at line {lineno}")
                if not np.isfinite(val):
                    raise DataFormatError(f"non-finite value at line {lineno}")
                x[idx - 1] = val
                prev = idx
            rows.append(x)
            labels.append(label)
    if not rows:
        raise DataFormatError(f"no records in {path}")
    return Dataset(np.vstack(rows), np.asarray(labels))


def export_libsvm(data: Dataset, path: str) -> None:
    """Write a Dataset in libsvm format; zeros are omitted, floats round-trip."""
    with open(path, "w", encoding="ascii") as fh:
        for i in range(data.n):
            parts = [format(data.responses[i], ".17g")]
            row = data.features[i]
            for j in np.nonzero(row)[0]:
                parts.append(f"{j + 1}:{format(row[j], '.17g')}")
            fh.write(" ".join(parts) + "\n")
