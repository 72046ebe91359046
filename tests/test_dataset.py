import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (assert_solved_at, line_loop_parse,
                      line_loop_serialize, solve_and_point)
from vropt import (Dataset, LibsvmParseError, add_bias_column,
                   generate_synthetic, normalize_rows, parse_libsvm,
                   serialize_libsvm, write_libsvm, LogisticProblem)
from vropt import dataset
from vropt.problems import _CHUNK


def to_dense(ds):
    return sp.csr_matrix((ds.data, ds.indices, ds.indptr),
                         shape=(ds.n, ds.dim)).toarray()


def test_parse_basic_and_label_aliases():
    text = "+1 1:0.5 3:-2.0\n1 2:1.5\n-1 1:1.0\n0 3:4.0\n"
    ds = parse_libsvm(text)
    assert ds.n == 4 and ds.dim == 3
    assert list(ds.labels) == [1, 1, -1, -1]
    dense = to_dense(ds)
    assert dense[0].tolist() == [0.5, 0.0, -2.0]
    assert dense[1].tolist() == [0.0, 1.5, 0.0]


def test_parse_skips_blank_lines_and_drops_zeros():
    ds = parse_libsvm("+1 1:0.0 2:3.0\n\n-1 1:1.0\n")
    assert ds.n == 2
    assert ds.indptr[1] == 1
    assert to_dense(ds)[0].tolist() == [0.0, 3.0]


@pytest.mark.parametrize("bad,line", [
    ("+1 1:0.5\n-1 junk\n", 2),
    ("+1 1:0.5 0:2.0\n", 1),
    ("+1 2:0.5 2:1.0\n", 1),
    ("+1 3:0.5 2:1.0\n", 1),
    ("+2 1:0.5\n", 1),
    ("+1 1:abc\n", 1),
    ("+1 1:0.5\n-1 99999999999999999999:1.0\n", 2),
    ("+1 1:0.5\n\n-1 2:nan\n", 3),
    ("+1 1:-inf\n", 1),
    ("+1 1:1e400\n", 1),
])
def test_parse_errors_carry_line_numbers(bad, line):
    with pytest.raises(LibsvmParseError, match=f"line {line}"):
        parse_libsvm(bad)


@pytest.mark.parametrize("bad,message", [
    # two colons in one token and none in the next: the global counts of
    # tokens and colons still match
    ("+1 1:2:3 4\n", "line 1: malformed token '1:2:3'"),
    # a stray token that is also a valid label
    ("+1 1:2 1\n3:4\n", "line 1: malformed token '1'"),
    # as many separators as "idx:val" tokens have, one colon too many
    ("+1 1:2 3:4:5\n", "line 1: malformed token '3:4:5'"),
    ("+1 :3\n", "line 1: malformed token ':3'"),
    ("+1 1:2 :3\n", "line 1: malformed token ':3'"),
    ("+1 3:\n", "line 1: malformed token '3:'"),
    ("+1 3: 4:5\n", "line 1: malformed token '3:'"),
    ("-1 2:1\n+1 0:1\n", "line 2: index 0 is not positive"),
    ("-1 1:1\r\n+1 2:1 9223372036854775808:1\n",
     "line 2: index 9223372036854775808 is too large"),
    # np.intp holds it, but a float64 vector of that many entries is past
    # numpy's size limit
    ("+1 1152921504606846976:1\n-1 1:1\n",
     "line 1: index 1152921504606846976 is too large"),
    ("+1 1:1 2:0 2:1\n", "line 1: index 2 not increasing (after 2)"),
    ("+1 1:0\n\x85+1 1:1e400\n", "line 3: value '1e400' is not finite"),
])
def test_parse_errors_match_the_line_loop_exactly(bad, message):
    with pytest.raises(LibsvmParseError) as exc:
        parse_libsvm(bad)
    assert str(exc.value) == message
    with pytest.raises(LibsvmParseError) as exc:
        line_loop_parse(bad)
    assert str(exc.value) == message


def assert_same_dataset(got, want):
    assert got.dim == want.dim
    for name in ("indptr", "indices", "data", "labels", "rows",
                 "row_sq_norms"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def test_blocks_end_after_a_newline(monkeypatch):
    text = "+1 1:1\r\n-1 2:0\n\n+1 3:2\r-1 1:5"
    monkeypatch.setattr(dataset, "_BLOCK_CHARS", 1)
    assert list(dataset._blocks(text)) == [
        ["+1 1:1"], ["-1 2:0"], [""], ["+1 3:2", "-1 1:5"]]
    monkeypatch.setattr(dataset, "_BLOCK_CHARS", 9)
    assert list(dataset._blocks(text)) == [
        ["+1 1:1", "-1 2:0"], ["", "+1 3:2", "-1 1:5"]]


def test_rows_on_block_boundaries(monkeypatch):
    rows = ["+1 1:0.5 3:-2", "-1 2:0 4:0.0", "+1 4:1e-3", "0 1:2 2:0 5:3"]
    text = "\n".join(rows) + "\n"
    want = line_loop_parse(text)
    # a block that ends just after the all-zero row
    monkeypatch.setattr(dataset, "_BLOCK_CHARS", len(rows[0]) + 2)
    assert next(dataset._blocks(text)) == rows[:2]
    # every place a block can end, down to one line per block
    for size in range(1, len(text) + 2):
        monkeypatch.setattr(dataset, "_BLOCK_CHARS", size)
        assert_same_dataset(parse_libsvm(text), want)


@pytest.fixture
def checked_lines(monkeypatch):
    """The line numbers parse_libsvm hands to _check_line, in order."""
    seen = []
    check = dataset._check_line

    def spy(line, line_no):
        seen.append(line_no)
        return check(line, line_no)

    monkeypatch.setattr(dataset, "_check_line", spy)
    return seen


def test_error_in_a_later_block_names_its_line(monkeypatch, checked_lines):
    monkeypatch.setattr(dataset, "_BLOCK_CHARS", 16)
    text = "+1 1:1 2:2\n-1 2:2 3:3\n\n+1 1:1 1:2\n-1 1:1\n"
    with pytest.raises(LibsvmParseError) as exc:
        parse_libsvm(text)
    assert str(exc.value) == "line 4: index 1 not increasing (after 1)"
    # only the block holding the bad line (lines 3 to 5) was checked line
    # by line, up to the bad line
    assert [len(lines) for lines in dataset._blocks(text)] == [2, 3]
    assert checked_lines == [3, 4]


def test_plain_text_takes_the_bulk_path(monkeypatch, checked_lines):
    ds = generate_synthetic(60, 7, seed=3, separation=2.0)
    text = serialize_libsvm(ds)
    monkeypatch.setattr(dataset, "_BLOCK_CHARS", 256)
    assert len(list(dataset._blocks(text))) > 2
    assert_same_dataset(parse_libsvm(text), ds)
    assert checked_lines == []


def test_a_refused_block_with_no_bad_line_is_an_error(monkeypatch):
    monkeypatch.setattr(dataset, "_read_block", lambda lines: None)
    with pytest.raises(AssertionError, match="block from line 1 was refused"):
        parse_libsvm("+1 1:1\n")


@pytest.mark.parametrize("text", [
    # indices that int() reads but that are not plain ASCII digits
    "+1 +3:1\n",  # signed
    "+1 1_0:2\n",  # with an underscore
    "-1 \u0663:2\n",  # a non-ASCII decimal digit
    "+1 1000000000000000000:1\n",  # 19 digits, below the largest index
    "+1 2:1 001152921504606846975:1\n",  # the largest index, zero-padded
    # values that float() reads
    "+1 1:\u0663 2:1_0 3:+3 4:-0.0\n",
])
def test_odd_number_forms_match_the_line_loop(text, checked_lines):
    assert_same_dataset(parse_libsvm(text), line_loop_parse(text))
    assert checked_lines == []


def test_label_only_rows_take_the_bulk_path(monkeypatch, checked_lines):
    alone = "+1\n-1\n0\n\n1\n"
    assert_same_dataset(parse_libsvm(alone), line_loop_parse(alone))
    # the same rows as one block between blocks with entries
    text = "+1 1:1 2:2\n-1 2:2 3:3\n" + alone + "+1 1:1 4:2\n"
    monkeypatch.setattr(dataset, "_BLOCK_CHARS", 11)
    assert list(dataset._blocks(text))[2] == alone.splitlines()
    assert_same_dataset(parse_libsvm(text), line_loop_parse(text))
    assert checked_lines == []


def test_parse_empty_input_rejected():
    with pytest.raises(LibsvmParseError):
        parse_libsvm("")


def test_serialize_round_trip():
    ds = generate_synthetic(40, 7, seed=11, separation=2.5)
    again = parse_libsvm(serialize_libsvm(ds))
    assert again == ds
    assert serialize_libsvm(again) == serialize_libsvm(ds)


def _rows_dataset(lengths, labels, dim=1 << 40):
    """Rows of the given lengths at columns that need 13-digit indices,
    with values from the subnormal floor to the largest float."""
    values = [5e-324, -0.1, 1.7976931348623157e308, 3.0, -2.5e-300, 1e16]
    indptr = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(lengths, out=indptr[1:])
    indices = np.concatenate([dim - 1 - np.arange(k)[::-1] for k in lengths]
                             + [np.zeros(0, dtype=np.intp)])
    data = [values[j % len(values)] for j in range(int(indptr[-1]))]
    return Dataset(indptr, indices, data, labels, dim)


@pytest.mark.parametrize("block", [1, 3, 7])
def test_serialize_blocks_match_the_entry_loop(monkeypatch, block):
    monkeypatch.setattr(dataset, "_WRITE_ENTRIES", block)
    cases = [
        # rows longer than a block, rows that straddle block ends, and
        # empty rows first, inside and trailing, under both labels
        _rows_dataset([0, 9, 1, 0, 2, 8, 3, 0, 0],
                      [1, -1, 1, -1, 1, -1, -1, 1, -1]),
        _rows_dataset([0, 0, 0], [-1, 1, 1]),  # all rows empty
        _rows_dataset([1], [1]),
        _rows_dataset([15], [-1]),
        generate_synthetic(40, 7, seed=11, separation=2.5),
    ]
    for ds in cases:
        assert serialize_libsvm(ds) == line_loop_serialize(ds)


def test_write_then_parse(tmp_path):
    ds = generate_synthetic(10, 4, seed=2, separation=1.0)
    path = tmp_path / "ds.svm"
    write_libsvm(ds, path)
    assert parse_libsvm(path.read_text()) == ds


def test_synthetic_shapes_and_determinism():
    a = generate_synthetic(31, 6, seed=9, separation=2.0)
    b = generate_synthetic(31, 6, seed=9, separation=2.0)
    c = generate_synthetic(31, 6, seed=10, separation=2.0)
    assert a == b
    assert a != c
    assert a.n == 31 and a.dim == 6
    assert sorted(np.bincount((a.labels + 1) // 2, minlength=2)) == [15, 16]
    assert np.all(np.diff(a.indptr) >= 1)


def test_synthetic_validation():
    with pytest.raises(ValueError):
        generate_synthetic(1, 4, seed=0, separation=1.0)
    with pytest.raises(ValueError):
        generate_synthetic(10, 0, seed=0, separation=1.0)
    for separation in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"^separation must be finite, "
                           f"got {separation!r}$"):
            generate_synthetic(10, 3, seed=0, separation=separation)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        generate_synthetic(10, 3, seed=-1, separation=1.0)


def test_synthetic_is_separable_enough():
    # well-separated classes must be nearly linearly classifiable
    ds = generate_synthetic(50, 5, seed=3, separation=5.0)
    problem = LogisticProblem(ds, 0.01)
    ref, x = solve_and_point(problem)
    assert_solved_at(problem, ref, x)
    preds = np.sign(to_dense(ds) @ x)
    assert float(np.mean(preds == ds.labels)) > 0.9


def test_normalize_rows():
    ds = generate_synthetic(20, 5, seed=4, separation=2.0)
    nds = normalize_rows(ds)
    assert np.allclose(nds.row_sq_norms, 1.0, atol=1e-12)
    # the checked, read-only structure is shared, not copied
    for name in ("indptr", "indices", "labels", "rows"):
        assert getattr(nds, name) is getattr(ds, name)
    assert nds.dim == ds.dim
    assert not nds.data.flags.writeable
    assert not nds.row_sq_norms.flags.writeable
    # the same norms a fresh constructor computes from the scaled values
    fresh = Dataset(ds.indptr, ds.indices, nds.data, ds.labels, ds.dim)
    assert nds == fresh
    assert nds.row_sq_norms.tobytes() == fresh.row_sq_norms.tobytes()


def test_normalize_rejects_entry_that_underflows():
    ds = parse_libsvm("-1 1:1.0\n+1 1:1e150 2:1e-180\n")
    with pytest.raises(ValueError, match="row 1 has an entry that underflows "
                                         "to zero when the row is scaled"):
        normalize_rows(ds)


def test_normalize_rejects_zero_row():
    ds = Dataset([0, 1, 1], [0], [1.0], [1, -1], 2)
    with pytest.raises(ValueError, match="row 1"):
        normalize_rows(ds)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_normalize_rejects_row_whose_squared_norm_overflows():
    ds = Dataset([0, 1, 3], [0, 0, 1], [1.0, 1e154, 1e154], [1, -1], 2)
    assert ds.row_sq_norms.tolist() == [1.0, math.inf]
    with pytest.raises(ValueError, match="row 1 has a squared norm past"):
        normalize_rows(ds)


def test_add_bias_column():
    ds = generate_synthetic(12, 3, seed=5, separation=2.0)
    bds = add_bias_column(ds)
    assert bds.dim == ds.dim + 1
    dense = to_dense(bds)
    assert np.all(dense[:, -1] == 1.0)
    assert np.array_equal(dense[:, :-1], to_dense(ds))
    # the arrays it builds are kept as they are; the labels are shared
    assert bds.labels is ds.labels
    for a in (bds.indptr, bds.indices, bds.data):
        assert not a.flags.writeable


def test_row_sq_norms_match_dense():
    ds = generate_synthetic(30, 8, seed=7, separation=2.0)
    dense = to_dense(ds)
    assert ds.row_sq_norms == pytest.approx(
        np.einsum("ij,ij->i", dense, dense), rel=1e-15)


def row_loop_synthetic(n, d, seed, separation):
    """generate_synthetic built one row at a time, as before it worked on
    the whole keep mask at once."""
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    labels = np.where(np.arange(n) < (n + 1) // 2, 1, -1)[rng.permutation(n)]
    dense = labels[:, None] * (separation / 2.0) * direction \
        + rng.standard_normal((n, d))
    keep = rng.random((n, d)) < 0.5
    indptr, indices, data = [0], [], []
    for i in range(n):
        mask = keep[i]
        if not mask.any():
            mask = np.zeros(d, dtype=bool)
            mask[int(np.argmax(np.abs(dense[i])))] = True
        idx = np.flatnonzero(mask & (dense[i] != 0.0))
        indices += idx.tolist()
        data += dense[i, idx].tolist()
        indptr.append(len(indices))
    return Dataset(indptr, indices, data, labels, d)


def row_loop_sq_norms(ds):
    """Each row's squares added left to right in plain Python floats."""
    bounds, values = ds.indptr.tolist(), ds.data.tolist()
    norms = []
    for lo, hi in zip(bounds, bounds[1:]):
        total = 0.0
        for t in values[lo:hi]:
            total += t * t
        norms.append(total)
    return norms


@pytest.mark.parametrize("n,d,seed", [(20, 1, 0), (25, 2, 1), (40, 3, 2),
                                      (31, 6, 9), (60, 20, 101)])
def test_array_transforms_match_row_loops(n, d, seed):
    # d <= 3 leaves some rows with an empty keep mask
    ds = generate_synthetic(n, d, seed, 2.0)
    assert ds == row_loop_synthetic(n, d, seed, 2.0)
    norms = row_loop_sq_norms(ds)
    assert ds.row_sq_norms.tobytes() == np.array(norms).tobytes()
    bounds = ds.indptr.tolist()
    want = [t / math.sqrt(s) for s, lo, hi in zip(norms, bounds, bounds[1:])
            for t in ds.data[lo:hi].tolist()]
    assert normalize_rows(ds).data.tobytes() == np.array(want).tobytes()


def test_arrays_are_read_only_copies():
    indptr, indices, data = [0, 2, 3], np.array([0, 2]), np.array([1.0, -2.0])
    ds = Dataset(indptr, np.append(indices, 1), np.append(data, 3.0),
                 [1, -1], 3)
    for a in (ds.indptr, ds.indices, ds.data, ds.labels, ds.rows,
              ds.row_sq_norms):
        assert not a.flags.writeable
    assert ds.indices.dtype == np.intp and ds.indptr.dtype == np.intp
    assert ds.rows.dtype == np.intp and ds.rows.tolist() == [0, 0, 1]
    with pytest.raises(AttributeError):
        ds.dim = 4


@pytest.mark.parametrize("indptr,indices,data,labels,dim", [
    ([0], [], [], [], 3),  # no rows
    ([0, 1], [0], [1.0], [1], 0),  # dim < 1
    ([0, 1], [0], [1.0], [1, 1], 3),  # label count
    ([0, 2], [0], [1.0], [1], 3),  # indptr does not end at nnz
    ([1, 1], [0], [1.0], [1], 3),  # indptr does not start at 0
    ([0, 1], [0, 1], [1.0], [1], 3),  # indices and values differ in length
])
def test_dataset_rejects_malformed_layout(indptr, indices, data, labels, dim):
    assert_both_reject(indptr, indices, data, labels, dim)


@pytest.mark.parametrize("field", range(4))
def test_dataset_arrays_must_be_1d(field):
    parts = [[0, 1], [0], [1.0], [1]]
    parts[field] = [parts[field]]  # the same entries as a 1-row matrix
    for build in (Dataset, Dataset._adopt):
        with pytest.raises(ValueError, match=r"^dataset arrays must be 1-D$"):
            build(*parts, 3)


def test_dataset_equality_and_repr():
    parts = ([0, 1, 2], [0, 2], [1.0, -2.0], [1, -1])
    ds = Dataset(*parts, 3)
    assert ds == Dataset(*parts, 3) and ds != Dataset(*parts, 4)
    assert ds.__eq__(parts) is NotImplemented and ds != parts
    assert repr(ds) == "Dataset(n=2, dim=3)"


@pytest.mark.parametrize("build", [Dataset, Dataset._adopt])
def test_dataset_names_its_first_bad_label(build):
    with pytest.raises(ValueError, match=r"^labels must be -1 or \+1, got 0$"):
        build([0, 1, 2, 3], [0, 0, 0], [1.0, 1.0, 1.0], [-1, 0, 2], 3)


def assert_both_reject(*parts):
    """The constructor and the adopting path refuse parts alike."""
    messages = []
    for build in (Dataset, Dataset._adopt):
        with pytest.raises(ValueError) as info:
            build(*parts)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_adopt_keeps_what_it_can_and_copies_the_rest():
    indptr = np.array([0, 2, 3], dtype=np.intp)
    indices = np.array([0, 2, 1], dtype=np.intp)
    data = np.array([1.0, -2.0, 3.0])
    labels = np.array([1, -1], dtype=np.int8)
    assert not np.shares_memory(Dataset(indptr, indices, data, labels,
                                        3).data, data)
    ds = Dataset._adopt(indptr, indices, data, labels, 3)
    for given, kept in zip((indptr, indices, data, labels),
                           (ds.indptr, ds.indices, ds.data, ds.labels)):
        assert kept is given
        assert not given.flags.writeable
    misaligned = np.zeros(3 * 8 + 1, dtype=np.uint8)[1:].view(np.float64)
    misaligned[:] = [1.0, -2.0, 3.0]
    assert not misaligned.flags.aligned
    for values in (np.array([1.0, -2.0, 3.0], dtype=np.float32),
                   np.array([1.0, 0.5, -2.0, 0.5, 3.0])[::2], misaligned):
        ds = Dataset._adopt(indptr, indices, values, labels, 3)
        assert not np.shares_memory(ds.data, values)
        assert values.flags.writeable  # the copy is frozen, not the input
        assert ds.data.dtype == np.float64
        assert ds.data.flags.aligned and ds.data.flags.c_contiguous
        assert not ds.data.flags.writeable
        assert ds.data.tolist() == [1.0, -2.0, 3.0]


# ------------------------------------------------------------ properties

@st.composite
def canonical_csr(draw, values=st.floats(allow_nan=False,
                                         allow_infinity=False).filter(bool)):
    """(indptr, indices, data, labels, dim) of a canonical dataset with
    nonzero entries drawn from values; rows may be empty and dim may exceed
    the largest stored column."""
    dim = draw(st.integers(1, 12))
    n = draw(st.integers(1, 6))
    indptr, indices, data = [0], [], []
    for _ in range(n):
        cols = sorted(draw(st.sets(st.integers(0, dim - 1), max_size=dim)))
        indices += cols
        data += draw(st.lists(values, min_size=len(cols), max_size=len(cols)))
        indptr.append(len(indices))
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return indptr, indices, data, labels, dim


# values span every finite float, so some squared row norms are inf, silently
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(parts=canonical_csr())
def test_serialize_parse_is_identity(parts):
    ds = Dataset(*parts)
    text = serialize_libsvm(ds)
    # the text holds no dimension: parsing infers the largest column's
    again = parse_libsvm(text)
    assert again == Dataset(*parts[:4], max(parts[1], default=0) + 1)
    assert serialize_libsvm(again) == text
    assert np.array_equal(again.data, ds.data)


_GOOD_LABELS = ["+1", "1", "-1", "0"]
_BAD_LABELS = ["2", "-0", "+0", "1.0", "a", "1:1", "\u0661"]
_SPACES = [" ", " ", " ", "\t", "  ", "\x1f", "\xa0", "\u3000"]
_BREAKS = ["\n"] * 4 + ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
                       "\x85", "\u2028", "\u2029"]
_BLANKS = ["", " ", "\t", "\x1f \u3000"]
_ODD_VALUES = ["0", "0.0", "-0.0", "1e-400", "nan", "-nan", "inf", "-inf",
               "1e400", "-1e400", "1_0", "+3", ".5", "5.", "1e3", "\u0663",
               "abc", "0x1", "1:2"]
_ODD_INDICES = ["0", "-1", "-0", "a", "1e1", "1.0", "\ud800",
                str(2**60 - 1), str(2**60), str(2**63 - 1), str(2**63),
                "1" + "0" * 18, "9" * 20]
_BROKEN = [":3", "3:", "1:2:3", "3", "::", ":", "1::2", "a:b", "1:\ud800"]
_ARABIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                      "\u0665\u0666\u0667\u0668\u0669")


@st.composite
def index_text(draw, i):
    """The index i as int() reads it: mostly plain digits, sometimes signed,
    zero-padded, with an underscore or in other decimal digits, and now and
    then an odd token: one int() rejects, the largest index, or one past
    it."""
    s = str(i)
    form = draw(st.sampled_from(range(30)))
    if form == 0:
        return "+" + s
    if form == 1:
        return "00" + s
    if form == 2 and len(s) > 1:
        return s[0] + "_" + s[1:]
    if form == 3:
        return s.translate(_ARABIC)
    if form == 4:
        return draw(st.sampled_from(_ODD_INDICES))
    return s


@st.composite
def libsvm_like_text(draw):
    """Text made of LIBSVM rows, valid and broken: label aliases and bad
    labels, blank and whitespace-only lines, every str.splitlines break,
    Unicode spaces, zero, non-finite and odd values, indices that repeat
    or fall, and tokens without one colon between two nonempty sides."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.sampled_from(range(5))) == 0:
            lines.append(draw(st.sampled_from(_BLANKS)))
            continue
        cols = sorted(draw(st.sets(st.integers(1, 40), max_size=6)))
        if draw(st.sampled_from(range(12))) == 0:
            cols = draw(st.permutations(cols))
        bad_label = draw(st.sampled_from(range(25))) == 0
        tokens = [draw(st.sampled_from(_BAD_LABELS if bad_label
                                       else _GOOD_LABELS))]
        for c in cols:
            if draw(st.sampled_from(range(20))) == 0:
                value = draw(st.sampled_from(_ODD_VALUES))
            else:
                value = repr(draw(st.floats(allow_nan=False,
                                            allow_infinity=False)))
            tokens.append(draw(index_text(c)) + ":" + value)
        if draw(st.sampled_from(range(25))) == 0:
            at = draw(st.integers(1, len(tokens)))
            tokens.insert(at, draw(st.sampled_from(_BROKEN)))
        line = tokens[0]
        for tok in tokens[1:]:
            line += draw(st.sampled_from(_SPACES)) + tok
        lines.append(draw(st.sampled_from(["", " "])) + line
                     + draw(st.sampled_from(["", "\t"])))
    text = "".join(line + draw(st.sampled_from(_BREAKS)) for line in lines)
    if lines and draw(st.booleans()):
        text = text[:-1] if not text.endswith("\r\n") else text[:-2]
    return text


def parse_outcome(parse, text):
    try:
        return parse(text)
    except LibsvmParseError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(text=libsvm_like_text(), block=st.sampled_from([1, 5, 24, 1 << 20]))
@example(text="+1 1:2:3 4\n", block=1 << 20).via("two colons, then none")
@example(text="+1 1:2 1\n3:4\n", block=1 << 20).via("a stray label")
@example(text="", block=1 << 20).via("no rows")
@example(text="\n \r\n", block=1).via("only blank lines")
def test_parse_matches_line_loop(text, block):
    want = parse_outcome(line_loop_parse, text)
    with mock.patch.object(dataset, "_BLOCK_CHARS", block):
        got = parse_outcome(parse_libsvm, text)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert_same_dataset(got, want)


# squares past the float range give inf without a warning
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(parts=canonical_csr())
@example(parts=([0, 0, 2, 2, 3, 3, 3], [1, 3, 0], [2.5, -1.0, 3.0],
                [1, -1, 1, -1, 1, -1], 5)).via("empty and trailing empty rows")
@example(parts=([0, 0, 0], [], [], [1, -1], 3)).via("no entries")
@example(parts=([0, 2, 4], [0, 4, 2, 3], [1e200, 1.0, 1e154, -1e154],
                [1, -1], 6)).via("a square, then a sum, past the float range")
@example(parts=([0, 2, 3], [0, 4, 2], [3.0, -0.1, 1e-160], [1, -1],
                6)).via("rows that normalize_rows can scale")
def test_row_sq_norms_match_split_rows_bit_for_bit(parts):
    ds = Dataset(*parts)
    want = np.array(row_loop_sq_norms(ds), dtype=np.float64)
    assert ds.row_sq_norms.dtype == np.float64
    assert ds.row_sq_norms.tobytes() == want.tobytes()
    assert ds.row_sq_norms.tobytes() == bincount_sq_norms(ds).tobytes()
    try:
        scaled = normalize_rows(ds)
    except ValueError:
        return  # an empty row, or a squared norm past the float range
    assert scaled.row_sq_norms.dtype == np.float64
    assert scaled.row_sq_norms.tobytes() == \
        bincount_sq_norms(scaled).tobytes()


def bincount_sq_norms(ds):
    """The row norms as np.bincount sums them, in storage order."""
    with np.errstate(over="ignore"):
        return np.bincount(ds.rows, weights=ds.data * ds.data, minlength=ds.n)


@settings(max_examples=200, deadline=None)
@given(parts=canonical_csr(), kind=st.sampled_from(
    ["decreasing", "duplicate", "below", "above", "zero", "nonfinite",
     "label"]),
    data=st.data())
def test_non_canonical_arrays_rejected(parts, kind, data):
    indptr, indices, values, labels, dim = parts
    indices, values, labels = list(indices), list(values), list(labels)
    if kind in ("decreasing", "duplicate"):
        pairs = [k for k in range(len(indices) - 1)
                 if k + 1 not in indptr]  # k and k + 1 share a row
        assume(pairs)
        k = data.draw(st.sampled_from(pairs))
        if kind == "decreasing":
            indices[k], indices[k + 1] = indices[k + 1], indices[k]
        else:
            indices[k + 1] = indices[k]
    elif kind == "label":
        i = data.draw(st.integers(0, len(labels) - 1))
        labels[i] = data.draw(st.sampled_from([0, 2, -2]))
    else:
        assume(indices)
        k = data.draw(st.integers(0, len(indices) - 1))
        if kind == "zero":
            values[k] = 0.0
        elif kind == "nonfinite":
            values[k] = data.draw(st.sampled_from([math.nan, math.inf,
                                                   -math.inf]))
        else:
            indices[k] = -1 if kind == "below" else dim
    assert_both_reject(indptr, indices, values, labels, dim)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(st.integers(0, 5), max_size=5), min_size=1,
                     max_size=6))
@example(rows=[[], [3, 4], [], [0, 2], []]).via("empty rows at both ends and "
                                               "between rows that step down")
def test_rise_check_matches_a_row_loop(rows):
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([i for r in rows for i in r], dtype=np.intp)
    want = all(a < b for r in rows for a, b in zip(r, r[1:]))
    assert dataset._rises_within_rows(indptr, indices) == want
    labels, dim = [1] * len(rows), 6
    if want:
        Dataset(indptr, indices, np.ones(indices.size), labels, dim)
    else:
        with pytest.raises(ValueError, match="strictly increasing in a row"):
            Dataset(indptr, indices, np.ones(indices.size), labels, dim)


def test_constructor_holds_one_temporary_beyond_its_fields():
    # past the arrays it keeps, the constructor's peak is the squared values
    # that row_sq_norms sums (nnz floats): its checks build no nnz-sized
    # copy
    ds = generate_synthetic(20000, 20, 1, 2.0)
    nnz = ds.indices.size
    tracemalloc.start()
    try:
        again = Dataset(ds.indptr, ds.indices, ds.data, ds.labels, ds.dim)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert again == ds
    assert peak - kept <= 1.25 * 8 * nnz


def test_normalize_rows_holds_no_copy_of_the_row_index():
    # past the arrays it keeps, normalizing peaks at the squared values that
    # row_sq_norms sums (nnz floats): the norms are summed from the shared,
    # read-only rows in place, not from an nnz-sized copy of them
    ds = generate_synthetic(21000, 20, 1, 2.0)
    nnz = ds.indices.size
    assert nnz >= 2 * 10**5
    tracemalloc.start()
    try:
        scaled = normalize_rows(ds)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scaled.rows is ds.rows
    assert peak - kept <= 1.25 * 8 * nnz


@pytest.fixture(scope="module")
def fifty_k_entries():
    ds = generate_synthetic(5000, 20, 1, 2.0)
    assert ds.indices.size >= 5 * 10**4
    return ds, serialize_libsvm(ds)


# each stage's peak over what it keeps (the dataset, the text, the dataset,
# the problem), as measured on fifty_k_entries (50,158 entries)
@pytest.mark.parametrize("stage,ratio", [
    ("generate_synthetic", 2.67), ("serialize_libsvm", 2.25),
    ("parse_libsvm", 1.36), ("LogisticProblem", 2.12)])
def test_stage_peak_stays_within_its_measured_ratio(fifty_k_entries, stage,
                                                    ratio):
    # tracemalloc peaks repeat exactly for fixed code and data, so each
    # stage's bound is its ratio with 10% headroom, not a timing
    ds, text = fifty_k_entries
    work = {"generate_synthetic": lambda: generate_synthetic(5000, 20, 1, 2.0),
            "serialize_libsvm": lambda: serialize_libsvm(ds),
            "parse_libsvm": lambda: parse_libsvm(text),
            "LogisticProblem": lambda: LogisticProblem(ds, 1e-3)}[stage]
    tracemalloc.start()
    try:
        kept_object = work()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept_object is not None
    assert peak <= 1.1 * ratio * kept


# |a_ij|, |x_j| <= 1e3 keep every product and row sum far from overflow
bounded = st.floats(-1e3, 1e3).filter(bool)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # exp overflow is silent
@settings(max_examples=200, deadline=None)
@given(parts=canonical_csr(values=bounded), data=st.data())
@example(parts=([0, 0, 2, 2, 2], [1, 3], [2.5, -1.0], [1, -1, 1, -1], 7),
         data=None).via("empty rows, trailing empty rows, dim past the last "
                        "column")
@example(parts=([0, 0, 0], [], [], [1, -1], 3), data=None).via("no entries")
def test_logistic_products_match_scipy(parts, data):
    problem = LogisticProblem(Dataset(*parts), mu=0.5)
    n, d = problem.n, problem.d
    if data is None:
        x = np.linspace(-3.0, 4.0, d)
        t = np.linspace(-800.0, 800.0, n)
    else:
        x = np.array(data.draw(st.lists(st.floats(-1e3, 1e3),
                                        min_size=d, max_size=d)))
        t = np.array(data.draw(st.lists(st.floats(-800.0, 800.0),
                                        min_size=n, max_size=n)))
    a = sp.csr_matrix((problem.data, problem.indices, problem.indptr),
                      shape=(n, d))
    # both sum each output in storage order, so they agree bit for bit
    for got, want in ((problem.margins(x), a @ x),
                      (problem.full_grad(x),
                       a.T @ (problem.loss_derivs(x) / n) + problem.mu * x)):
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
    # numpy's exp and libm's may differ in the last bit
    b = problem.dataset.labels.astype(np.float64)
    for margins in (t, a @ x):
        assert np.max(np.abs(problem._derivs(margins)
                             - -b * expit(-b * margins))) <= 4e-16


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_products_match_scipy_across_chunks():
    # rows straddle the boundaries of the passes the all-row products make
    rng = np.random.default_rng(3)
    dim, n = 40, 3 * _CHUNK // 15
    cols = [np.sort(rng.choice(dim, rng.integers(0, 31), replace=False))
            for _ in range(n)]
    indptr = np.concatenate(([0], np.cumsum([len(c) for c in cols])))
    nnz = indptr[-1]
    assert nnz > 2 * _CHUNK
    values = rng.uniform(0.5, 2.0, nnz) * rng.choice([-1.0, 1.0], nnz)
    ds = Dataset(indptr, np.concatenate(cols), values,
                 rng.choice([-1, 1], n), dim)
    problem = LogisticProblem(ds, mu=0.5)
    a = sp.csr_matrix((ds.data, ds.indices, ds.indptr), shape=(n, dim))
    x = rng.standard_normal(dim)
    assert problem.margins(x).tobytes() == (a @ x).tobytes()
    want = a.T @ (problem.loss_derivs(x) / n) + problem.mu * x
    assert problem.full_grad(x).tobytes() == want.tobytes()
    # entries that overflow give inf and nan, silently, as scipy's do
    huge = np.full(dim, 1e308)
    got = problem.margins(huge)
    assert np.isinf(got).any() and np.isnan(got).any()
    np.testing.assert_array_equal(got, a @ huge)
