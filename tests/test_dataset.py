import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vropt import (Dataset, LibsvmParseError, add_bias_column,
                   compute_reference, generate_synthetic, normalize_rows,
                   parse_libsvm, serialize_libsvm, write_libsvm,
                   LogisticProblem)
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


def test_parse_empty_input_rejected():
    with pytest.raises(LibsvmParseError):
        parse_libsvm("")


def test_parse_dim_override():
    ds = parse_libsvm("+1 1:1.0\n", dim=5)
    assert ds.dim == 5
    with pytest.raises(LibsvmParseError):
        parse_libsvm("+1 4:1.0\n", dim=3)


def test_serialize_round_trip():
    ds = generate_synthetic(40, 7, seed=11, separation=2.5)
    again = parse_libsvm(serialize_libsvm(ds))
    assert again == ds
    assert serialize_libsvm(again) == serialize_libsvm(ds)


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


def test_synthetic_is_separable_enough():
    # well-separated classes must be nearly linearly classifiable
    ds = generate_synthetic(50, 5, seed=3, separation=5.0)
    ref = compute_reference(LogisticProblem(ds, 0.01))
    preds = np.sign(to_dense(ds) @ ref.x_star)
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
    with pytest.raises(ValueError):
        Dataset(indptr, indices, data, labels, dim)


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
    again = parse_libsvm(text, dim=ds.dim)
    assert again == ds
    assert serialize_libsvm(again) == text
    inferred = parse_libsvm(text)
    assert inferred.dim == max(parts[1], default=0) + 1
    assert np.array_equal(inferred.data, ds.data)


# squares past the float range give inf without a warning
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(parts=canonical_csr())
@example(parts=([0, 0, 2, 2, 3, 3, 3], [1, 3, 0], [2.5, -1.0, 3.0],
                [1, -1, 1, -1, 1, -1], 5)).via("empty and trailing empty rows")
@example(parts=([0, 0, 0], [], [], [1, -1], 3)).via("no entries")
@example(parts=([0, 2, 4], [0, 4, 2, 3], [1e200, 1.0, 1e154, -1e154],
                [1, -1], 6)).via("a square, then a sum, past the float range")
def test_row_sq_norms_match_split_rows_bit_for_bit(parts):
    ds = Dataset(*parts)
    want = np.array(row_loop_sq_norms(ds), dtype=np.float64)
    assert ds.row_sq_norms.dtype == np.float64
    assert ds.row_sq_norms.tobytes() == want.tobytes()


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
    with pytest.raises(ValueError):
        Dataset(indptr, indices, values, labels, dim)


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
