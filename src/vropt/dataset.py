"""Sparse datasets for binary classification: LIBSVM I/O, synthetic generation,
row normalization.

Conventions: feature indices are 1-based on disk (LIBSVM) and 0-based in memory;
labels are strictly -1/+1; rows are stored in canonical CSR form (strictly
increasing indices within a row, only finite nonzero values). Datasets are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math

import numpy as np

from .rules import integer, real

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


# The most float64 entries one array can hold (numpy sizes no array past
# np.intp's largest byte count), and so the largest 1-based index.
MAX_FLOATS = int(np.iinfo(np.intp).max) // 8


def _frozen(values, dtype, copy: bool) -> np.ndarray:
    """values as a read-only 1-D array of dtype: a copy, or with copy False
    values itself when it already is an aligned, contiguous array of
    dtype."""
    a = np.array(values, dtype=dtype) if copy \
        else np.require(values, dtype, ("C", "A"))
    if a.ndim != 1:
        raise ValueError("dataset arrays must be 1-D")
    a.setflags(write=False)
    return a


def _rises_within_rows(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Whether every row's indices strictly increase. A step that starts a
    row may go down, so those steps of the diff are overwritten with an
    upward one before the rest are compared."""
    steps = np.diff(indices)
    starts = indptr[1:-1]
    steps[starts[(starts > 0) & (starts < indices.size)] - 1] = 1
    return not steps.size or steps.min() > 0


class Dataset:
    """Immutable CSR collection of (row, label) pairs with precomputed row norms.

    Row i has the values data[indptr[i]:indptr[i+1]] at the 0-based columns
    indices[indptr[i]:indptr[i+1]]. Every array is read-only. The
    constructor copies its input; parse_libsvm, generate_synthetic,
    add_bias_column and a cached_dataset hit hand over arrays they own,
    which are checked the same way and kept without a copy (a cache hit's
    arrays are views of the entry's bytes; add_bias_column keeps the
    labels of the Dataset it extends); normalize_rows shares every array
    but data and row_sq_norms with the Dataset it scales.

    Attributes:
        indptr: np.intp array of row offsets, length n + 1.
        indices: np.intp array of column indices, strictly increasing within
            each row and inside [0, dim).
        data: float64 array of the stored values, all finite and nonzero.
        labels: int8 array of -1/+1, length n.
        dim: feature dimension shared by every row, a Python int >= 1.
        rows: np.intp array, the row of each stored entry, length nnz.
        row_sq_norms: float64 array, per row the sum of its stored values'
            rounded squares, added one at a time in storage order from 0.0
            (so the same bits on every platform; 0.0 for an empty row, inf
            where the sum overflows).
    """

    __slots__ = ("indptr", "indices", "data", "labels", "dim", "rows",
                 "row_sq_norms")

    def __init__(self, indptr, indices, data, labels, dim: int):
        self._check_and_set(indptr, indices, data, labels, dim, copy=True)

    @classmethod
    def _adopt(cls, indptr, indices, data, labels, dim: int) -> Dataset:
        """A Dataset that keeps the given arrays themselves, checked as the
        constructor checks them and made read-only; an array that is not
        aligned, contiguous and of its dtype is copied. The caller must own
        the arrays and write to them no more."""
        ds = object.__new__(cls)
        ds._check_and_set(indptr, indices, data, labels, dim, copy=False)
        return ds

    def _check_and_set(self, indptr, indices, data, labels, dim,
                       copy: bool) -> None:
        indptr = _frozen(indptr, np.intp, copy)
        indices = _frozen(indices, np.intp, copy)
        data = _frozen(data, np.float64, copy)
        lab = _frozen(labels, np.int8, copy)
        dim = integer("dim", dim, least=1)
        n = indptr.size - 1
        if n < 1:
            raise ValueError("dataset needs at least one row")
        if lab.size != n:
            raise ValueError(f"{n} rows but {lab.size} labels")
        bad = (lab != 1) & (lab != -1)
        if bad.any():
            raise ValueError(f"labels must be -1 or +1, got {lab[bad][0]}")
        nnz = indices.size
        if data.size != nnz:
            raise ValueError(f"{nnz} indices but {data.size} values")
        if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
            raise ValueError(f"indptr must rise from 0 to nnz = {nnz}")
        if nnz:
            if indices.min() < 0 or indices.max() >= dim:
                raise ValueError(f"indices must lie in [0, {dim}), got range "
                                 f"[{indices.min()}, {indices.max()}]")
            if not _rises_within_rows(indptr, indices):
                raise ValueError("indices must be strictly increasing in a row")
        rows = np.repeat(np.arange(n), np.diff(indptr))
        rows.setflags(write=False)
        self._set_fields(indptr, indices, data, lab, dim, rows)

    def _set_fields(self, indptr, indices, data, labels, dim, rows) -> None:
        """Check the stored values and set every field. The other arrays,
        rows (the row of each entry) included, must be read-only and
        checked."""
        if np.any(data == 0.0):
            raise ValueError("canonical sparse form stores no zero values")
        if not np.all(np.isfinite(data)):
            raise ValueError("canonical sparse form stores only finite values")
        # np.add.at adds each row's rounded squares one at a time in storage
        # order, the same bits on every machine, and reads the read-only
        # rows in place (np.bincount would copy them); a square or a sum
        # past the float range is inf, and stays so without a warning
        norms = np.zeros(labels.size)
        with np.errstate(over="ignore"):
            np.add.at(norms, rows, data * data)
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


_LABELS = {"+1": 1, "1": 1, "-1": -1, "0": -1}

# Text is parsed in blocks of lines of about this many characters: a
# block's token lists cost far more memory than the arrays they fill, so
# only one block's worth is held at a time. Blocks of 2**15 to 2**20
# characters parse about equally fast.
_BLOCK_CHARS = 1 << 16

_COLON, _SPACE, _ZERO = ord(":"), ord(" "), ord("0")


def _check_line(line: str, line_no: int) -> None:
    """Raise the LibsvmParseError of the first check that one line fails,
    if any; a blank line passes.

    The one definition of the format's errors: parse_libsvm calls it only
    on the lines of a block that _read_block turned down, for the error
    message, so it builds nothing."""
    tokens = line.split()
    if tokens and tokens[0] not in _LABELS:
        raise LibsvmParseError(
            f"line {line_no}: unrecognized label {tokens[0]!r}")
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
        if idx > MAX_FLOATS:
            raise LibsvmParseError(f"line {line_no}: index {idx} is too large")
        if idx <= prev:
            raise LibsvmParseError(
                f"line {line_no}: index {idx} not increasing (after {prev})")
        prev = idx
        if val != 0.0 and not math.isfinite(val):  # zeros are dropped
            raise LibsvmParseError(
                f"line {line_no}: value {val_s!r} is not finite")


def _digits(b: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The integers written in the fields b[starts[j]:ends[j]] of the bytes
    b, or None unless every field is at most 18 ASCII digits: int() reads
    those the same way, and np.intp holds them. An empty field reads 0."""
    width = int((ends - starts).max())
    if width > 18:
        return None
    out = np.zeros(starts.size, dtype=np.intp)
    for j in range(width, 0, -1):  # the fields right-aligned, high digit first
        pos = ends - j
        # a position before its field's start is masked (the first field's
        # may be negative and wrap to the end of b); a byte below "0" wraps
        # past 9 in uint8
        digit = np.where(pos >= starts, b[pos] - _ZERO, 0)
        if np.any(digit > 9):
            return None
        out = out * 10 + digit
    return out


def _read_block(lines: list[str]):
    """One block of lines as (entries per row, 0-based indices, values,
    labels), read by whole-block work, or None exactly when some line of
    the block fails a check of _check_line. Blank lines are skipped."""
    heads, counts, entries = [], [], []
    for line in lines:
        tokens = line.split()
        if tokens:
            heads.append(tokens[0])
            counts.append(len(tokens) - 1)
            entries += tokens[1:]
    try:
        labels = np.array([_LABELS[h] for h in heads], dtype=np.int8)
    except KeyError:
        return None
    k = len(entries)
    if not k:  # label-only rows, or blank lines alone
        return (np.zeros(labels.size, np.intp), np.zeros(0, np.intp),
                np.zeros(0), labels)
    bounds = np.zeros(len(heads) + 1, dtype=np.intp)  # row starts, then k
    np.cumsum(counts, out=bounds[1:])
    # Tokens hold no whitespace, so the joined text's k - 1 spaces are the
    # joints, and every token holds one colon exactly when the separators
    # alternate ":", " ", ..., ":": 2k - 1 of them, a colon at every even
    # place. (Bytes of a non-ASCII character are never either separator.)
    # An empty side is left to the conversions: an empty index reads as 0,
    # which no index may be, and float("") fails.
    joined = " ".join(entries)
    b = np.frombuffer(joined.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    seps = np.flatnonzero((b == _COLON) | (b == _SPACE))
    colons = seps[::2]
    if seps.size != 2 * k - 1 or np.any(b[colons] != _COLON):
        return None
    starts = np.zeros(k, dtype=np.intp)
    starts[1:] = seps[1::2] + 1
    fields = joined.replace(":", " ").split(" ")  # index, value, index, ...
    idx = _digits(b, starts, colons)  # 18 digits stay below MAX_FLOATS
    try:
        if idx is None:  # signed, with "_", other digits, or long: as int()
            idx = np.fromiter(map(int, fields[::2]), dtype=np.intp, count=k)
            if idx.max() > MAX_FLOATS:
                return None
        data = np.fromiter(map(float, fields[1::2]), np.float64, count=k)
    except (ValueError, OverflowError):  # OverflowError: past np.intp
        return None
    # a non-finite value is nonzero, so every value must be finite
    if idx.min() < 1 or not np.all(np.isfinite(data)):
        return None
    # indices rise within a row, zero values included
    first = np.zeros(k + 1, dtype=bool)
    first[bounds] = True
    if not np.all(first[1:k] | (idx[1:] > idx[:-1])):
        return None
    keep = data != 0.0  # zero entries are dropped to keep rows canonical
    kept = np.zeros(k + 1, dtype=np.intp)
    np.cumsum(keep, out=kept[1:])
    return np.diff(kept[bounds]), idx[keep] - 1, data[keep], labels


def _blocks(source: str):
    """source.splitlines() in blocks of about _BLOCK_CHARS characters. A
    block ends just after a "\n", which always ends a line and never splits
    a "\r\n", so the blocks' lines are source.splitlines() in order."""
    start = 0
    while start < len(source):
        end = source.find("\n", start + _BLOCK_CHARS - 1) + 1 or len(source)
        yield source[start:end].splitlines()
        start = end


def parse_libsvm(source: str) -> Dataset:
    """Parse LIBSVM text: one row per line, "label idx:val idx:val ...".

    The label is +1 or 1 (stored as +1) or -1 or 0 (stored as -1). Indices
    are 1-based integers as Python's int reads them (a sign, underscores
    and any decimal digits included), at most np.iinfo(np.intp).max // 8
    (2**60 - 1 on 64-bit platforms, so numpy can size a float64 vector of
    dim entries), strictly increasing within a line; values are what
    float reads, and entries whose value is zero are dropped (their
    indices still count for the increasing check). A row may hold a label
    alone. Tokens are separated by any whitespace, lines by any
    str.splitlines break, and blank lines are skipped. The text is read in
    blocks of lines by _read_block; only a block that holds a bad line is
    checked line by line, by _check_line, for the error the first bad
    line gives.

    Args:
        source: the file content.

    Returns:
        Dataset with 0-based column indices, whose dim is the largest index
        observed (1 if every row is empty).

    Raises:
        LibsvmParseError: malformed token, index not positive or too large,
            non-finite value, non-increasing indices within a line, or
            unrecognized label, at the first bad line, whose 1-based number
            the message names; or no rows.
    """
    blocks = []
    line_no = 1
    for lines in _blocks(source):
        block = _read_block(lines)
        if block is None:
            for j, line in enumerate(lines, start=line_no):
                _check_line(line, j)
            raise AssertionError(
                f"the block from line {line_no} was refused, but no line fails")
        blocks.append(block)
        line_no += len(lines)
    if not sum(block[3].size for block in blocks):
        raise LibsvmParseError("no data rows found")
    counts, indices, values, labels = map(np.concatenate, zip(*blocks))
    del blocks  # free the pieces before Dataset builds the row index
    indptr = np.zeros(labels.size + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    dim = int(indices.max()) + 1 if indices.size else 1
    return Dataset._adopt(indptr, indices, values, labels, dim)


# Rows are written in blocks of about this many stored entries, each block
# formatted by one % call, so besides its output the writer holds only one
# block's Python ints and floats at a time.
_WRITE_ENTRIES = 1 << 14


def serialize_libsvm(ds: Dataset) -> str:
    """Canonical writer: "label idx:val ...", 1-based indices, shortest
    round-trip decimals, one trailing newline.

    Whole rows are formatted in blocks of about _WRITE_ENTRIES entries (a
    longer row is a block of its own), one % call per block; %d of a
    Python int is its str and %r of a float its repr."""
    ends = ds.indptr.tolist()
    heads = ["+1" if label == 1 else "-1" for label in ds.labels.tolist()]
    out = []
    lo = 0
    while lo < ds.n:
        # the rows that end within _WRITE_ENTRIES of the block's start
        hi = int(np.searchsorted(ds.indptr, ends[lo] + _WRITE_ENTRIES,
                                 side="right")) - 1
        hi = max(hi, lo + 1)
        start, stop = ends[lo], ends[hi]
        args = [None] * (2 * (stop - start))
        args[0::2] = (ds.indices[start:stop] + 1).tolist()
        args[1::2] = ds.data[start:stop].tolist()
        fmt = "".join([heads[i] + " %d:%r" * (ends[i + 1] - ends[i]) + "\n"
                       for i in range(lo, hi)])
        out.append(fmt % tuple(args))
        lo = hi
    return "".join(out)


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
        seed: RNG seed, >= 0.
        separation: distance between the two cluster centers, finite.

    Raises:
        ValueError: n < 2 (cannot place both labels), d < 1, a
            separation that is NaN or infinite, a negative seed, or (a
            ConfigError) an argument of the wrong kind of number.
    """
    n, d = integer("n", n, least=2), integer("d", d, least=1)
    separation = real("separation", separation)
    if not math.isfinite(separation):
        raise ValueError(f"separation must be finite, got {separation!r}")
    seed = integer("seed", seed, least=0)
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
    return Dataset._adopt(indptr, cols, dense[rows, cols], labels, d)


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
    return Dataset._adopt(ds.indptr + np.arange(ds.n + 1),
                          np.insert(ds.indices, ends, ds.dim),
                          np.insert(ds.data, ends, 1.0), ds.labels,
                          ds.dim + 1)
