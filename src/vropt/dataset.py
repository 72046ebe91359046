"""Sparse datasets for binary classification: LIBSVM I/O, synthetic generation,
row normalization.

Conventions: feature indices are 1-based on disk (LIBSVM) and 0-based in memory;
labels are strictly -1/+1; rows are stored in canonical CSR form (strictly
increasing indices within a row, only finite nonzero values). Datasets are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = [
    "Dataset",
    "LibsvmParseError",
    "parse_libsvm",
    "serialize_libsvm",
    "write_libsvm",
    "generate_synthetic",
    "normalize_rows",
    "add_bias_column",
]


class LibsvmParseError(ValueError):
    """Malformed LIBSVM input; the message carries the 1-based line number."""


_MAX_INDEX = int(np.iinfo(np.intp).max)  # largest 1-based index np.intp holds


def _frozen(values, dtype) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    if a.ndim != 1:
        raise ValueError("dataset arrays must be 1-D")
    a.setflags(write=False)
    return a


class Dataset:
    """Immutable CSR collection of (row, label) pairs with precomputed row norms.

    Row i has the values data[indptr[i]:indptr[i+1]] at the 0-based columns
    indices[indptr[i]:indptr[i+1]]. Every array is read-only: the
    constructor copies its input, and normalize_rows shares every array but
    data and row_sq_norms with the Dataset it scales.

    Attributes:
        indptr: np.intp array of row offsets, length n + 1.
        indices: np.intp array of column indices, strictly increasing within
            each row and inside [0, dim).
        data: float64 array of the stored values, all finite and nonzero.
        labels: int8 array of -1/+1, length n.
        dim: feature dimension shared by every row.
        rows: np.intp array, the row of each stored entry, length nnz.
        row_sq_norms: float64 array, per row the sum of its stored values'
            rounded squares, added one at a time in storage order from 0.0
            (so the same bits on every platform; 0.0 for an empty row, inf
            where the sum overflows).
    """

    __slots__ = ("indptr", "indices", "data", "labels", "dim", "rows",
                 "row_sq_norms")

    def __init__(self, indptr, indices, data, labels, dim: int):
        indptr = _frozen(indptr, np.intp)
        indices = _frozen(indices, np.intp)
        data = _frozen(data, np.float64)
        lab = _frozen(labels, np.int8)
        dim = int(dim)
        n = indptr.size - 1
        if n < 1:
            raise ValueError("dataset needs at least one row")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if lab.size != n:
            raise ValueError(f"{n} rows but {lab.size} labels")
        if not np.all(np.isin(lab, (-1, 1))):
            bad = lab[~np.isin(lab, (-1, 1))][0]
            raise ValueError(f"labels must be -1 or +1, got {bad}")
        nnz = indices.size
        if data.size != nnz:
            raise ValueError(f"{nnz} indices but {data.size} values")
        if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
            raise ValueError(f"indptr must rise from 0 to nnz = {nnz}")
        if nnz:
            if indices.min() < 0 or indices.max() >= dim:
                raise ValueError(f"indices must lie in [0, {dim}), got range "
                                 f"[{indices.min()}, {indices.max()}]")
            # a step that starts a row may go down; any other must go up
            within = np.ones(nnz, dtype=bool)
            within[indptr[:-1][indptr[:-1] < nnz]] = False
            if np.any(np.diff(indices)[within[1:]] <= 0):
                raise ValueError("indices must be strictly increasing in a row")
        rows = np.repeat(np.arange(n), np.diff(indptr))
        rows.setflags(write=False)
        self._set_fields(indptr, indices, data, lab, dim, rows)

    def _set_fields(self, indptr, indices, data, labels, dim, rows) -> None:
        """Check the stored values and set every field. The other arrays
        must be read-only and checked; rows is the row of each entry."""
        if np.any(data == 0.0):
            raise ValueError("canonical sparse form stores no zero values")
        if not np.all(np.isfinite(data)):
            raise ValueError("canonical sparse form stores only finite values")
        # bincount adds each row's rounded squares left to right in storage
        # order, the same bits on every machine; a square or a sum past the
        # float range is inf, and stays so without a warning
        with np.errstate(over="ignore"):
            norms = np.bincount(rows, weights=data * data,
                                minlength=labels.size)
        norms = norms.astype(np.float64, copy=False)  # int zeros if nnz == 0
        for a in (data, norms):
            a.setflags(write=False)
        for name, value in (("indptr", indptr), ("indices", indices),
                            ("data", data), ("labels", labels), ("dim", dim),
                            ("rows", rows), ("row_sq_norms", norms)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    @property
    def n(self) -> int:
        return self.labels.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.dim == other.dim
                and np.array_equal(self.labels, other.labels)
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.data, other.data))

    def __repr__(self):
        return f"Dataset(n={self.n}, dim={self.dim})"


def _parse_line(line: str, line_no: int, indices: list[int],
                values: list[float]) -> int:
    """Append one line's entries to the flat lists; returns its label."""
    tokens = line.split()
    label_tok = tokens[0]
    if label_tok in ("+1", "1"):
        label = 1
    elif label_tok in ("-1", "0"):
        label = -1
    else:
        raise LibsvmParseError(f"line {line_no}: unrecognized label {label_tok!r}")
    prev = 0  # file indices are 1-based, so 0 floors the increasing check
    for tok in tokens[1:]:
        idx_s, sep, val_s = tok.partition(":")
        if not sep:
            raise LibsvmParseError(f"line {line_no}: malformed token {tok!r}")
        try:
            idx = int(idx_s)
            val = float(val_s)
        except ValueError:
            raise LibsvmParseError(
                f"line {line_no}: malformed token {tok!r}") from None
        if idx < 1:
            raise LibsvmParseError(f"line {line_no}: index {idx} is not positive")
        if idx > _MAX_INDEX:
            raise LibsvmParseError(f"line {line_no}: index {idx} is too large")
        if idx <= prev:
            raise LibsvmParseError(
                f"line {line_no}: index {idx} not increasing (after {prev})")
        prev = idx
        if val == 0.0:  # zero entries are dropped to keep rows canonical
            continue
        if not math.isfinite(val):
            raise LibsvmParseError(
                f"line {line_no}: value {val_s!r} is not finite")
        indices.append(idx - 1)
        values.append(val)
    return label


def parse_libsvm(source: str | Iterable[str], dim: int | None = None) -> Dataset:
    """Parse LIBSVM text ("label idx:val idx:val ...", indices 1-based).

    Args:
        source: the file content as a string, or an iterable of lines
            (an open text file works).
        dim: optional dimension override, e.g. to align train/test columns;
            must be >= the largest index observed. Defaults to that maximum.

    Returns:
        Dataset with 0-based column indices.

    Raises:
        LibsvmParseError: malformed token, non-finite value, non-increasing
            indices within a line, or unrecognized label; the message names
            the line number.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    labels: list[int] = []
    indptr = [0]
    indices: list[int] = []
    values: list[float] = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        labels.append(_parse_line(line, line_no, indices, values))
        indptr.append(len(indices))
    if not labels:
        raise LibsvmParseError("no data rows found")
    inferred = max(indices, default=0) + 1  # dim 1 if every row is empty
    if dim is None:
        dim = inferred
    elif dim < inferred:
        raise LibsvmParseError(
            f"dim override {dim} is smaller than observed dimension {inferred}")
    return Dataset(indptr, indices, values, labels, dim)


def serialize_libsvm(ds: Dataset) -> str:
    """Canonical writer: "label idx:val ...", 1-based indices, shortest
    round-trip decimals, one trailing newline."""
    indptr = ds.indptr.tolist()
    cols = (ds.indices + 1).tolist()
    vals = ds.data.tolist()
    out = []
    for i, label in enumerate(ds.labels.tolist()):
        lo, hi = indptr[i], indptr[i + 1]
        parts = ["+1" if label == 1 else "-1"]
        parts.extend(f"{c}:{v!r}" for c, v in zip(cols[lo:hi], vals[lo:hi]))
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def write_libsvm(ds: Dataset, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_libsvm(ds))


def generate_synthetic(n: int, d: int, seed: int, separation: float) -> Dataset:
    """Generate a two-cluster binary classification dataset, sparsified.

    Rows are drawn from label-conditioned Gaussians centered at
    +-(separation/2) * u for a random unit direction u, then entries are
    dropped with probability 1/2 (keeping at least one entry per row). The
    result is a pure function of the arguments; both labels always occur.

    Args:
        n: number of rows, >= 2.
        d: feature dimension, >= 1.
        seed: RNG seed.
        separation: distance between the two cluster centers.

    Raises:
        ValueError: n < 2 (cannot place both labels) or d < 1.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 to place both labels, got {n}")
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    labels = np.where(np.arange(n) < (n + 1) // 2, 1, -1)[rng.permutation(n)]
    dense = labels[:, None] * (separation / 2.0) * direction + rng.standard_normal((n, d))
    keep = rng.random((n, d)) < 0.5
    # a row that kept nothing keeps its largest-magnitude entry instead
    empty = np.flatnonzero(~keep.any(axis=1))
    keep[empty, np.argmax(np.abs(dense[empty]), axis=1)] = True
    keep &= dense != 0.0
    rows, cols = np.nonzero(keep)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return Dataset(indptr, cols, dense[rows, cols], labels, d)


def normalize_rows(ds: Dataset) -> Dataset:
    """Scale every row to unit Euclidean norm; returns a new Dataset that
    shares ds's indptr, indices, labels and rows arrays.

    Raises:
        ValueError: some row has zero norm, a squared norm past the float
            range, or an entry that underflows to zero when scaled (names
            the row index).
    """
    norms = np.sqrt(ds.row_sq_norms)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"row {zero[0]} has zero norm and cannot be normalized")
    huge = np.flatnonzero(np.isinf(norms))
    if huge.size:
        raise ValueError(f"row {huge[0]} has a squared norm past the float "
                         "range and cannot be normalized")
    data = ds.data / norms[ds.rows]
    under = np.flatnonzero(data == 0.0)
    if under.size:
        raise ValueError(f"row {ds.rows[under[0]]} has an entry that "
                         "underflows to zero when the row is scaled to unit "
                         "norm")
    # the structure is checked and read-only, so only the values need checks
    out = object.__new__(Dataset)
    out._set_fields(ds.indptr, ds.indices, data, ds.labels, ds.dim, ds.rows)
    return out


def add_bias_column(ds: Dataset) -> Dataset:
    """Append a constant-1 feature as the last column (dim grows by one)."""
    ends = ds.indptr[1:]
    return Dataset(ds.indptr + np.arange(ds.n + 1),
                   np.insert(ds.indices, ends, ds.dim),
                   np.insert(ds.data, ends, 1.0), ds.labels, ds.dim + 1)
