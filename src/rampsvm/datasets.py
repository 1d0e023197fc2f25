"""Dataset file formats, synthetic data generation, and embedded fixtures.

Two text formats are supported:

* CSV: one sample per line, label first, then the n features,
  e.g. ``+1,3,3``.
* LIBSVM: ``label idx:val ...`` with 1-based indices; missing indices are
  zero.  The feature dimension is the largest index seen in the file.

Labels must parse to exactly +1 or -1; anything else (including 0) is
rejected with the offending line number.  ``write_csv`` is one
``np.savetxt`` through an open handle, labels as ``%+d`` and features as
``%.17g``: 17 significant digits make a write/parse round trip exact.

A CSV file is read in one ``np.loadtxt`` pass over its non-blank lines.
When the block has a row per line and at least two columns, ``Dataset``
validates it (labels exactly +-1, finite features).  loadtxt parses a
number with the same correctly rounded conversion as Python's ``float``
and accepts no string that ``float`` rejects, so a block that ``Dataset``
accepts is the dataset the per-line loop would build.  When loadtxt
raises, a guard fails or ``Dataset`` raises its ``ValueError``, the
per-line loop runs instead, as the error locator: it raises the first
error with its line number, or it returns the dataset for syntax that only
``float`` accepts (digit underscores such as ``1_0``, non-ASCII digits).

The fixtures at the bottom are tiny hand-checkable instances used by the
test suite and the ``counterexample`` CLI command.
"""

from __future__ import annotations

import math
import numbers
from enum import Enum
from pathlib import Path

import numpy as np

from .certify import PrimalDualPoint
from .problem import Dataset

__all__ = [
    "DataFormat",
    "DataFormatError",
    "parse_dataset",
    "write_csv",
    "gen_synthetic",
    "counterexample_dataset",
    "counterexample_point",
    "COUNTEREXAMPLE_C",
    "single_point_dataset",
    "single_point_point",
    "symmetric_pair_dataset",
    "symmetric_pair_point",
]


class DataFormat(Enum):
    CSV = "csv"
    LIBSVM = "libsvm"


class DataFormatError(ValueError):
    """Malformed dataset file; the message carries the 1-based line number."""


def _parse_label(tok: str, lineno: int) -> float:
    try:
        val = float(tok)
    except ValueError:
        raise DataFormatError(f"line {lineno}: bad label {tok!r}") from None
    if val not in (1.0, -1.0):
        raise DataFormatError(
            f"line {lineno}: label must be +1 or -1, got {tok!r}"
        )
    return val


def _parse_float(tok: str, lineno: int) -> float:
    try:
        val = float(tok)
    except ValueError:
        raise DataFormatError(f"line {lineno}: bad number {tok!r}") from None
    if not math.isfinite(val):
        raise DataFormatError(f"line {lineno}: non-finite value {tok!r}")
    return val


def _numbered(text: str) -> list[tuple[int, str]]:
    """(1-based line number, stripped line) of every non-blank line."""
    return [
        (i, stripped)
        for i, raw in enumerate(text.splitlines(), start=1)
        if (stripped := raw.strip())
    ]


def _parse_csv(lines: list[str], text: str) -> Dataset:
    try:
        block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        # A file of labels alone would otherwise build an n = 0 dataset.
        if block.shape[0] == len(lines) and block.shape[1] >= 2:
            return Dataset(X=block[:, 1:], y=block[:, 0])
    except ValueError:
        pass
    return _parse_csv_lines(_numbered(text))


def _parse_csv_lines(lines) -> Dataset:
    xs, ys = [], []
    n = None
    for lineno, line in lines:
        fields = line.split(",")
        if len(fields) < 2:
            raise DataFormatError(
                f"line {lineno}: expected label and at least one feature"
            )
        ys.append(_parse_label(fields[0].strip(), lineno))
        row = [_parse_float(tok.strip(), lineno) for tok in fields[1:]]
        if n is None:
            n = len(row)
        elif len(row) != n:
            raise DataFormatError(
                f"line {lineno}: expected {n} features, got {len(row)}"
            )
        xs.append(row)
    return Dataset(X=np.array(xs), y=np.array(ys))


def _parse_libsvm(lines) -> Dataset:
    ys, rows, cols, vals = [], [], [], []
    for r, (lineno, line) in enumerate(lines):
        toks = line.split()
        ys.append(_parse_label(toks[0], lineno))
        seen = set()
        for tok in toks[1:]:
            idx, sep, val = tok.partition(":")
            if not sep:
                raise DataFormatError(
                    f"line {lineno}: expected idx:val, got {tok!r}"
                )
            try:
                i = int(idx)
            except ValueError:
                raise DataFormatError(
                    f"line {lineno}: bad feature index {idx!r}"
                ) from None
            if i < 1:
                raise DataFormatError(
                    f"line {lineno}: feature indices are 1-based, got {i}"
                )
            if i in seen:
                raise DataFormatError(
                    f"line {lineno}: duplicate feature index {i}"
                )
            seen.add(i)
            vals.append(_parse_float(val, lineno))
            rows.append(r)
            cols.append(i - 1)
    if not cols:
        raise DataFormatError("no feature indices found in file")
    X = np.zeros((len(ys), max(cols) + 1))
    X[rows, cols] = vals
    return Dataset(X=X, y=np.array(ys))


def parse_dataset(path, fmt: DataFormat = DataFormat.CSV) -> Dataset:
    """Load a dataset file; raises DataFormatError with a line number on
    malformed input and on an empty file."""
    text = Path(path).read_text()
    # The stripped non-blank lines; only the per-line parsers number them.
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if not lines:
        raise DataFormatError(f"{path}: no samples found")
    if fmt is DataFormat.CSV:
        return _parse_csv(lines, text)
    if fmt is DataFormat.LIBSVM:
        return _parse_libsvm(_numbered(text))
    raise ValueError(f"unknown format {fmt!r}")


def write_csv(dataset: Dataset, path) -> None:
    """Write CSV with 17-significant-digit features (exact round trip).

    A dataset with no features (n = 0) is refused with ValueError before
    the file is opened: ``parse_dataset`` rejects a CSV without feature
    columns.
    """
    if dataset.n == 0:
        raise ValueError("dataset has no features; a CSV needs at least one")
    # An open handle, not the path: np.savetxt gzips a path ending in .gz.
    with open(path, "w") as fh:
        np.savetxt(
            fh,
            np.column_stack((dataset.y, dataset.X)),
            fmt=["%+d"] + ["%.17g"] * dataset.n,
            delimiter=",",
        )


def gen_synthetic(
    n_per_class: int,
    separation: float,
    outlier_fraction: float,
    seed: int,
) -> Dataset:
    """Two unit-variance Gaussian blobs in the plane at +-(separation/2)*e1,
    positives first, with ceil(outlier_fraction * m) points relocated far
    onto the wrong side (10x the separation) while keeping their labels.

    Deterministic for a fixed seed.  A non-finite separation, one whose
    outlier offset 10 * separation overflows when outliers are placed, and
    a negative integer seed are rejected with ValueError.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be at least 1")
    if not 0.0 <= outlier_fraction <= 1.0:
        raise ValueError(
            f"outlier_fraction must be in [0, 1], got {outlier_fraction}"
        )
    if not math.isfinite(separation):
        raise ValueError(f"separation must be finite, got {separation}")
    m = 2 * n_per_class
    k = math.ceil(outlier_fraction * m)
    # A Python float: a numpy scalar would warn as the product overflows.
    if k and not math.isfinite(10.0 * float(separation)):
        raise ValueError(
            f"separation must keep the outlier offset 10 * separation "
            f"finite, got {separation}"
        )
    if isinstance(seed, numbers.Integral) and seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    half = separation / 2.0
    X = rng.standard_normal((m, 2))
    X[:n_per_class, 0] += half
    X[n_per_class:, 0] -= half
    y = np.concatenate((np.ones(n_per_class), -np.ones(n_per_class)))
    if k:
        chosen = rng.choice(m, size=k, replace=False)
        X[chosen] = rng.standard_normal((k, 2))
        X[chosen, 0] -= y[chosen] * 10.0 * separation
    return Dataset(X=X, y=y)


# --- fixtures ---------------------------------------------------------------

#: Penalty at which the three-point counterexample below is a KKT point.
COUNTEREXAMPLE_C = 0.25


def counterexample_dataset() -> Dataset:
    """Three points in the plane admitting a KKT point that fails the prox
    fixed-point condition at every prox step: KKT does not imply
    P-stationarity."""
    return Dataset(
        X=np.array([[3.0, 3.0], [6.0, -2.0], [1.0, 1.0]]),
        y=np.array([1.0, 1.0, -1.0]),
    )


def counterexample_point() -> PrimalDualPoint:
    """The KKT-but-not-P-stationary candidate for counterexample_dataset
    at C = 0.25."""
    return PrimalDualPoint(
        w=np.array([0.5, 0.5]),
        b=-2.0,
        u=np.array([0.0, 1.0, 0.0]),
        lam=np.array([-0.25, 0.0, -0.25]),
    )


def single_point_dataset() -> Dataset:
    """One positive sample at x = 2; global optimum is w = 0, b = 1 with
    objective 0, and every residual vanishes exactly."""
    return Dataset(X=np.array([[2.0]]), y=np.array([1.0]))


def single_point_point() -> PrimalDualPoint:
    return PrimalDualPoint(
        w=np.array([0.0]), b=1.0, u=np.array([0.0]), lam=np.array([0.0])
    )


def symmetric_pair_dataset() -> Dataset:
    """A positive sample at +1 and a negative at -1 on the line; at C = 1
    the point w = 1, b = 0 is stationary with both samples on the margin."""
    return Dataset(X=np.array([[1.0], [-1.0]]), y=np.array([1.0, -1.0]))


def symmetric_pair_point() -> PrimalDualPoint:
    return PrimalDualPoint(
        w=np.array([1.0]),
        b=0.0,
        u=np.array([0.0, 0.0]),
        lam=np.array([-0.5, -0.5]),
    )
