"""CSV/JSON readers and writers shared by the CLI and the harness.

Dataset files are CSV with header ``x1,...,xn,f``, one sample per row,
UTF-8 with '.' decimal separator.  Query files carry the same coordinate
columns without the value column.  All writes go through a temp file and an
atomic rename.
"""

import csv
import json
import os
import tempfile

import numpy as np

from .errors import CsvFormatError
from .geometry import Dataset

__all__ = [
    "read_dataset_csv",
    "write_dataset_csv",
    "read_queries_csv",
    "atomic_write_text",
    "write_json",
    "write_grid_csv",
]


def _parse_row(row, width, line_no):
    if len(row) != width:
        raise CsvFormatError(
            f"expected {width} columns, got {len(row)}", line=line_no
        )
    try:
        return [float(cell) for cell in row]
    except ValueError as exc:
        raise CsvFormatError(str(exc), line=line_no) from None


def _read_csv(path, with_values):
    """The rows of an ``x1,...,xn`` CSV, with a last ``f`` column when
    ``with_values``, as an (n, columns) float array; blank lines are
    skipped."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise CsvFormatError("empty file", line=1) from None
        coords = header
        if with_values:
            if len(header) < 2 or header[-1] != "f":
                raise CsvFormatError(f"expected header x1,...,xn,f, got {header}", line=1)
            coords = header[:-1]
        expected = [f"x{i + 1}" for i in range(len(coords))]
        if coords != expected:
            raise CsvFormatError(
                f"expected coordinate columns {expected}, got {coords}", line=1
            )
        rows = [
            _parse_row(row, len(header), line_no)
            for line_no, row in enumerate(reader, start=2)
            if row
        ]
    return np.asarray(rows, dtype=float).reshape(len(rows), len(header))


def read_dataset_csv(path, noise_sigma=0.0):
    """Read a labelled dataset from ``x1,...,xn,f`` CSV."""
    arr = _read_csv(path, with_values=True)
    if not len(arr):
        raise CsvFormatError("dataset has no sample rows", line=2)
    return Dataset(arr[:, :-1], arr[:, -1], noise_sigma=noise_sigma)


def write_dataset_csv(path, data):
    dim = data.ambient_dim
    header = [f"x{i + 1}" for i in range(dim)] + ["f"]
    lines = [",".join(header)]
    for loc, val in zip(data.locations, data.values):
        lines.append(",".join(repr(float(v)) for v in loc) + f",{float(val)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_queries_csv(path):
    """Read query points from ``x1,...,xn`` CSV (zero rows is fine)."""
    return _read_csv(path, with_values=False)


def atomic_write_text(path, text):
    """Write via a sibling temp file and an atomic rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_grid_csv(path, queries, truth, predictions):
    """Grid dump ``x,y,truth,pred_<method>...`` for external plotting."""
    names = sorted(predictions)
    header = ["x", "y", "truth"] + [f"pred_{n}" for n in names]
    lines = [",".join(header)]
    for i, q in enumerate(queries):
        cells = [repr(float(q[0])), repr(float(q[1])), repr(float(truth[i]))]
        for n in names:
            cells.append(repr(float(predictions[n][i])))
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")
