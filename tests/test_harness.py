import contextlib
import hashlib
import io
import math
import os
import tempfile
import warnings
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.special import expit

import vropt.harness
from conftest import (RidgeProblem, assert_solved_at, make_logistic,
                      make_ridge, ridge_minimizer, row_loop_rate_csv,
                      solve_and_point)
from vropt import (AveragingScheme, ConfigError, Dataset, FIGURE_IDS,
                   FixedLength, FixedStep, GridRow, LogisticProblem,
                   RATE_HEADER, SolverConfig, TRACE_HEADER, Trace, TracePoint,
                   bench_configs, cached_dataset, cached_reference,
                   compute_reference, figure_grid, format_rate_csv,
                   format_trace_csv, generate_synthetic, load_trace_csv,
                   normalize_rows, parse_libsvm, problem_key, rate_grid,
                   run_experiment, serialize_libsvm, write_trace_csv)
from vropt.harness import ReferenceOptimum, check_experiment


# ----------------------------------------------------------- reference

def test_reference_ridge_matches_normal_equations():
    problem = make_ridge(6, 3, seed=40, mu=0.4)
    ref, x = solve_and_point(problem)
    assert ref.grad_norm <= 1e-10
    assert_solved_at(problem, ref, x)
    assert np.allclose(x, ridge_minimizer(problem), atol=1e-10)
    assert ref.f_star == pytest.approx(
        problem.value(ridge_minimizer(problem)), abs=1e-14)


def test_reference_logistic_meets_tolerance():
    problem = make_logistic(12, 3, seed=41, kappa=5.0)
    ref, x = solve_and_point(problem, tol=1e-8)
    assert_solved_at(problem, ref, x, tol=1e-8)


def test_reference_validation():
    problem = make_logistic(10, 3, seed=42, kappa=5.0)
    for tol in (0.0, -1e-8, math.inf, math.nan):
        message = f"^tol must be positive and finite, got {tol}$"
        with pytest.raises(ValueError, match=message):
            compute_reference(problem, tol=tol)
        # refused before the cache is read, so a cached entry that any
        # gradient norm satisfies is no answer either
        with mock.patch.object(vropt.harness, "_read_entry", no_call), \
                pytest.raises(ValueError, match=message):
            cached_reference(problem, tol=tol)
    for mu_free in (make_ridge(8, 9000, seed=0, mu=0.0),
                    make_ridge(8, 3, mu=0.0)):
        with pytest.raises(ValueError, match="mu"):
            compute_reference(mu_free)


def test_reference_cap_reported():
    # the cap is 10000 iterations at any kappa (here about 6 and 5.7e5)
    for mu in (0.5, 1e-5):
        problem = make_ridge(4, 3, seed=43, mu=mu)
        with pytest.raises(
                RuntimeError,
                match=r"^reference solver hit the 10000-iteration cap with "
                      r"gradient norm .* > tol 1\.000e-200$"):
            compute_reference(problem, tol=1e-200)  # below float resolution


def test_reference_no_decrease_reported():
    base = make_logistic(30, 4, seed=1, kappa=10.0)
    calls = []

    class Ascending(LogisticProblem):
        """The true f with -grad f: every L-BFGS direction ascends."""

        def value_and_grad(self, x):
            calls.append(x)
            f, g = super().value_and_grad(x)
            return f, -g

    with pytest.raises(RuntimeError,
                       match=r"^reference solver found no decrease at "
                             r"gradient norm 2\.020e-01 > tol 1\.000e-10$"):
        compute_reference(Ascending(base.dataset, base.mu))
    # the origin, then the trials t = 1, 1/2, ..., 2^-41
    assert len(calls) == 1 + 42


def plain_descent(problem, tol):
    """Gradient descent with step 1/L from the origin on dense copies of the
    logistic rows, until the gradient norm is at most tol."""
    ds = problem.dataset
    a = csr_matrix((ds.data, ds.indices, ds.indptr),
                   shape=(ds.n, ds.dim)).toarray()
    b = ds.labels.astype(np.float64)
    x = np.zeros(problem.d)
    while True:
        g = a.T @ (-b * expit(-b * (a @ x))) / problem.n + problem.mu * x
        if np.linalg.norm(g) <= tol:
            return x
        x = x - g / problem.smoothness


@st.composite
def small_logistic(draw):
    """A logistic problem of at most 8 rows over at most 5 columns (rows may
    be empty) with kappa in [1, 1e4], and a tolerance in [1e-12, 1e-6]."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    values = st.floats(-10.0, 10.0).filter(lambda v: abs(v) >= 1e-3)
    indptr, indices, data = [0], [], []
    for _ in range(n):
        cols = sorted(draw(st.sets(st.integers(0, d - 1))))
        indices += cols
        data += draw(st.lists(values, min_size=len(cols), max_size=len(cols)))
        indptr.append(len(indices))
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    ds = Dataset(indptr, indices, data, labels, d)
    kappa = 10.0 ** draw(st.floats(0.0, 4.0))
    tol = 10.0 ** draw(st.floats(-12.0, -6.0))
    curvature = float(np.max(ds.row_sq_norms)) / 4.0  # L - mu
    mu = curvature / (kappa - 1.0) if curvature > 0 and kappa > 1 else 1.0
    return LogisticProblem(ds, mu), tol


@settings(max_examples=30, deadline=None)
@given(case=small_logistic())
def test_reference_meets_tol_and_matches_descent(case):
    problem, tol = case
    ref, x = solve_and_point(problem, tol=tol)
    assert ref.grad_norm <= tol
    assert_solved_at(problem, ref, x, tol=tol)
    # both points have gradient norm <= tol, so each lies within tol/mu of
    # the minimizer of the mu-strongly convex objective
    x_gd = plain_descent(problem, tol)
    assert np.linalg.norm(x - x_gd) <= 2.0 * tol / problem.mu


def reference_counters(seed):
    """Solve the dense-lineup benchmark problem of this seed; returns the
    counter passed to each full_grad and value_and_grad call."""
    problem = LogisticProblem(
        normalize_rows(generate_synthetic(1000, 20, seed, 3.0)), 0.25 / 999)
    counters = []
    full_grad, value_and_grad = problem.full_grad, problem.value_and_grad

    def counted(x, counter=None):
        counters.append(counter)
        return full_grad(x, counter)

    def counted_pair(x):  # takes no counter: passing one is a TypeError
        counters.append(None)
        return value_and_grad(x)

    problem.full_grad, problem.value_and_grad = counted, counted_pair
    ref = compute_reference(problem)
    assert ref.grad_norm <= 1e-10
    return counters


def test_reference_needs_few_uncharged_gradients():
    # the dense-lineup benchmark data; 1/L descent took 1405 gradients here
    counters = reference_counters(101)
    assert 0 < len(counters) <= 100
    assert all(counter is None for counter in counters)


def test_reference_line_search_goes_on_where_f_is_flat():
    # the line search meets a flat f at gradient norm 3.6e-10
    assert 0 < len(reference_counters(102)) <= 20


def test_reference_wide_ridge_goes_through_lbfgs():
    # n = 8 rows make a small dual system for the check
    n, mu = 8, 1.0
    rng = np.random.default_rng(49)
    a, y = rng.standard_normal((n, 5000)), rng.standard_normal(n)
    problem = RidgeProblem(a, y, mu)
    ref, x = solve_and_point(problem)
    assert ref.grad_norm <= 1e-10
    assert_solved_at(problem, ref, x)
    dual = np.linalg.solve(a @ a.T / n + mu * np.eye(n), y / n)
    assert np.linalg.norm(x - a.T @ dual) <= 2e-10 / mu


def test_reference_line_search_shrinks_non_finite_trials():
    base = make_logistic(30, 4, seed=1, kappa=1000.0, sep=3.0)
    x_star = solve_and_point(base)[1]
    radius = 1.001 * float(np.linalg.norm(x_star))
    walled = []

    class Walled(LogisticProblem):
        """The same objective, with value inf and a nan gradient beyond
        `radius`: a solve that took such a trial would go on from a nan
        gradient and end with a nan gradient norm and an infinite f."""

        def value(self, x):
            if np.linalg.norm(x) > radius:
                walled.append(x)
                return math.inf
            return super().value(x)

        def value_and_grad(self, x):
            if np.linalg.norm(x) > radius:
                walled.append(x)
                return math.inf, np.full(self.d, math.nan)
            return super().value_and_grad(x)

    problem = Walled(base.dataset, base.mu)
    ref, x = solve_and_point(problem)
    assert walled  # some trial step crossed the wall
    # and was shrunk, never taken
    assert np.linalg.norm(x) <= radius
    assert ref.grad_norm <= 1e-10
    assert math.isfinite(ref.f_star)
    assert_solved_at(problem, ref, x)
    assert np.linalg.norm(x - x_star) <= 2e-10 / problem.mu


def test_reference_gives_up_line_search_where_rounding_decides():
    # f stops resolving a decrease while the gradient norm is still above
    # tol; accepting trials that pass the Armijo test by rounding alone
    # would stall L-BFGS here until the iteration cap
    ds = Dataset([0, 1, 1, 2, 3, 3, 4, 4, 5], [0] * 5,
                 [-12.136171105831217, -11.575238811145066, -6.080448236823193,
                  -4.034295896026006, 9.965939729017983],
                 [-1, 1, 1, 1, -1, -1, 1, 1], 1)
    problem = LogisticProblem(ds, 36.07234908141233)
    ref = compute_reference(problem, tol=5.236862054879553e-10)
    assert ref.grad_norm <= 5.236862054879553e-10


def test_reference_ranks_flat_trials_by_gradient_norm():
    # kappa 9394: the first trial of a late line search equals f up to
    # rounding and has a larger gradient norm; halving on to a trial with
    # a smaller gradient norm takes 78 evaluations
    ds = Dataset([0, 2, 5, 7, 11, 15],
                 [0, 1, 2, 3, 4, 2, 4, 0, 1, 3, 4, 0, 2, 3, 4],
                 [-5.1469020293097385, -4.433114096734805, 2.7636591239194193,
                  -1.665769533135679, 4.345937525746767, -7.843594114113015,
                  -1.0913420955512196, 7.184200144447501, 0.4181729357952853,
                  3.8534004712112355, -7.663910170341578, -5.460943765922973,
                  -8.46131422243465, 4.302674690554885, 0.10514082576376099],
                 [1, 1, 1, 1, -1], 5)
    problem = LogisticProblem(ds, 0.003336991626273995)
    calls = []
    value_and_grad = problem.value_and_grad
    problem.value_and_grad = lambda x: calls.append(x) or value_and_grad(x)
    ref = compute_reference(problem, tol=2.5173219163060274e-10)
    assert ref.grad_norm <= 2.5173219163060274e-10
    assert len(calls) <= 200


def test_problem_key_tracks_content():
    p1 = make_logistic(10, 3, seed=44, kappa=5.0)
    p1_again = make_logistic(10, 3, seed=44, kappa=5.0)
    p2 = make_logistic(10, 3, seed=45, kappa=5.0)
    p3 = make_logistic(10, 3, seed=44, kappa=6.0)  # same data, other mu
    assert problem_key(p1) == problem_key(p1_again)
    assert problem_key(p1) != problem_key(p2)
    assert problem_key(p1) != problem_key(p3)
    r = make_ridge(10, 3, seed=44)
    assert problem_key(r) != problem_key(p1)
    rows = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert problem_key(RidgeProblem(rows, np.array([1.0, -1.0]), 0.5)) != \
        problem_key(RidgeProblem(rows, np.array([1.0, 1.0]), 0.5))
    assert len(problem_key(p1)) == 16
    assert set(problem_key(p1)) <= set("0123456789abcdef")
    # same rows, one with unused columns: different problems, different keys
    rows = ([0, 1, 2], [0, 1], [1.0, 2.0], [1, -1])
    assert problem_key(LogisticProblem(Dataset(*rows, 2), 0.1)) != \
        problem_key(LogisticProblem(Dataset(*rows, 5), 0.1))


def test_problem_key_survives_libsvm_round_trip():
    # a warm start reads the cache filled for the generated dataset
    ds = normalize_rows(generate_synthetic(30, 6, seed=48, separation=2.0))
    again = parse_libsvm(serialize_libsvm(ds))
    assert problem_key(LogisticProblem(again, 0.01)) == \
        problem_key(LogisticProblem(ds, 0.01))


def test_problem_key_golden():
    # pins the hashed byte layout: a change here silently misses every cache
    ds = parse_libsvm("+1 1:1.0\n-1 2:2.0\n")
    assert problem_key(LogisticProblem(ds, 0.5)) == "8a6fff8c3324256e"
    ridge = RidgeProblem(np.array([[1.0, 0.0], [0.0, 2.0]]),
                         np.array([1.0, -1.0]), 0.5)
    assert problem_key(ridge) == "2666a7c2b139a8f1"


def test_problem_key_golden_normalized():
    # pins the row norms' rounding too: the squares are added left to right,
    # so a normalized problem's cache entry is the same on every machine
    ds = parse_libsvm("+1 1:0.1 2:0.3 4:1.3\n-1 2:0.5 3:-2.0 5:0.25 6:1.5\n")
    assert ds.row_sq_norms.tolist() == [1.7900000000000003, 6.5625]
    problem = LogisticProblem(normalize_rows(ds), 0.5)
    assert problem_key(problem) == "7078b9c0b896a915"


# --------------------------------------------------------------- cache

def test_cache_round_trip_is_exact(isolated_cache, monkeypatch):
    problem = make_logistic(12, 3, seed=46, kappa=8.0)
    ref1 = cached_reference(problem)
    files = list(isolated_cache.glob("ref-*"))
    assert len(files) == 1
    assert files[0].name == f"ref-{problem_key(problem)}.npy"

    def boom(*args, **kwargs):
        raise AssertionError("cache should have been hit")

    monkeypatch.setattr(vropt.harness, "compute_reference", boom)
    ref2 = cached_reference(problem)
    assert ref2.f_star == ref1.f_star
    assert ref2.grad_norm == ref1.grad_norm


def test_cache_write_interrupted_leaves_nothing(isolated_cache, monkeypatch):
    problem = make_logistic(12, 3, seed=46, kappa=8.0)

    def failed(src, dst):
        raise OSError("disk full")

    def interrupted(src, dst):
        raise KeyboardInterrupt

    # a failed write is ignored; an interrupt propagates; neither leaves
    # a file behind
    monkeypatch.setattr(vropt.harness.os, "replace", failed)
    ref = cached_reference(problem)
    assert ref.f_star == compute_reference(problem).f_star
    assert list(isolated_cache.iterdir()) == []
    monkeypatch.setattr(vropt.harness.os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cached_reference(problem)
    assert list(isolated_cache.iterdir()) == []


def record_fields(path):
    """The fields of a cache entry's record, crc32 included, by name."""
    record = np.load(path, allow_pickle=False)
    return {name: record[name] for name in record.dtype.names}


def save_record(path, **fields):
    """Write the fields, in order, as a cache entry: one 0-d .npy record
    whose last field, crc32, is the zlib.crc32 of every byte before it."""
    arrays = {name: np.asarray(value) for name, value in fields.items()}
    record = np.zeros((), [(name, a.dtype, a.shape)
                           for name, a in arrays.items()] + [("crc32", "<u4")])
    for name, a in arrays.items():
        record[name] = a
    record["crc32"] = zlib.crc32(record.reshape(1).view(np.uint8)[:-4])
    np.save(path, record)


@pytest.mark.parametrize("dim", [3, 20_000])
def test_cache_file_format(isolated_cache, dim):
    ds = Dataset([0, 1, 2], [0, dim - 1], [1.0, -1.0], [1, -1], dim)
    problem = LogisticProblem(ds, 0.1)
    ref = cached_reference(problem, tol=1e-9)
    path = isolated_cache / f"ref-{problem_key(problem)}.npy"
    record = np.load(path, allow_pickle=False)
    assert record.shape == ()
    assert record.dtype.names == ("key", "f_star", "grad_norm", "crc32")
    assert record.dtype == np.dtype([
        ("key", "<U16"), ("f_star", "<f8"), ("grad_norm", "<f8"),
        ("crc32", "<u4")])
    assert str(record["key"]) == problem_key(problem)
    assert float(record["f_star"]) == ref.f_star
    assert float(record["grad_norm"]) == ref.grad_norm
    # the record is the file's tail; crc32 covers every byte before it
    body = path.read_bytes()[-record.dtype.itemsize:]
    assert body == record.tobytes()
    assert body[-4:] == zlib.crc32(body[:-4]).to_bytes(4, "little")
    assert len(path.read_bytes()) == 276  # whatever the dimension


def test_cache_rejected_when_not_tight_enough(isolated_cache, monkeypatch):
    problem = make_logistic(12, 3, seed=48, kappa=8.0)
    loose = cached_reference(problem, tol=1e-4)
    assert loose.grad_norm > 1e-10  # descent stops at the first crossing
    calls = []
    true_compute = vropt.harness.compute_reference

    def counting(problem, tol=1e-10):
        calls.append(tol)
        return true_compute(problem, tol=tol)

    monkeypatch.setattr(vropt.harness, "compute_reference", counting)
    tight = cached_reference(problem, tol=1e-10)
    assert calls == [1e-10]
    assert tight.grad_norm <= 1e-10
    # the cache now holds the tighter solution; a loose request reuses it
    calls.clear()
    again = cached_reference(problem, tol=1e-4)
    assert calls == []
    assert again.grad_norm == tight.grad_norm
    # a stored NaN gradient norm meets no tol: the entry passes its CRC
    # and is solved again
    path = isolated_cache / f"ref-{problem_key(problem)}.npy"
    fields = record_fields(path)
    del fields["crc32"]
    save_record(path, **dict(fields, grad_norm=np.float64(math.nan)))
    assert vropt.harness._read_entry(
        path, vropt.harness._REFERENCE_FIELDS) is not None
    assert cached_reference(problem, tol=1e-4).grad_norm <= 1e-4
    assert calls == [1e-4]


def test_cache_rejected_on_key_mismatch(isolated_cache, monkeypatch):
    p1 = make_logistic(12, 3, seed=49, kappa=8.0)
    p2 = make_logistic(12, 3, seed=50, kappa=8.0)
    cached_reference(p1)
    src = isolated_cache / f"ref-{problem_key(p1)}.npy"
    dst = isolated_cache / f"ref-{problem_key(p2)}.npy"
    good = src.read_bytes()
    dst.write_bytes(good)
    calls = []
    true_compute = vropt.harness.compute_reference

    def counting(problem, tol=1e-10):
        calls.append(problem_key(problem))
        return true_compute(problem, tol=tol)

    monkeypatch.setattr(vropt.harness, "compute_reference", counting)
    cached_reference(p2)  # stale key inside the file
    assert calls == [problem_key(p2)]

    # truncated or garbage: ignored, recomputed, rewritten
    for bad in (good[:len(good) // 2], b"not a cache file\n"):
        src.write_bytes(bad)
        calls.clear()
        ref = cached_reference(p1)
        assert calls == [problem_key(p1)]
        assert src.read_bytes()[:6] == b"\x93NUMPY"  # an .npy file again
        assert ref.grad_norm <= 1e-10
    calls.clear()
    cached_reference(p1)
    assert calls == []


def test_cache_env_dir_used(tmp_path, monkeypatch):
    problem = make_logistic(10, 3, seed=51, kappa=6.0)
    monkeypatch.setenv("VROPT_CACHE_DIR", str(tmp_path / "via-env"))
    cached_reference(problem)
    assert (tmp_path / "via-env" /
            f"ref-{problem_key(problem)}.npy").is_file()


def counting_parse(calls):
    def parse(text):
        calls.append(text)
        return parse_libsvm(text)
    return parse


def test_dataset_cache_crlf_and_lf_parse_equal(isolated_cache):
    text = serialize_libsvm(generate_synthetic(20, 5, seed=52,
                                               separation=2.0))
    calls = []
    parse = counting_parse(calls)
    datasets = [cached_dataset(raw, parse)
                for raw in (text.encode(), text.replace("\n", "\r\n").encode())
                for _ in range(2)]
    assert len(calls) == 2  # one miss per distinct content
    assert len(list(isolated_cache.glob("data-*.npy"))) == 2
    assert all(ds == datasets[0] for ds in datasets)


def dataset_entry(raw, cache):
    """The cached_dataset entry path for raw in the cache directory, and its
    record's fields."""
    digest = hashlib.sha256(raw).hexdigest()
    path = cache / f"data-{digest[:16]}.npy"
    return path, record_fields(path)


@pytest.mark.parametrize("damage", ["corrupted", "truncated", "non-canonical",
                                    "dtype", "other file"])
def test_dataset_cache_bad_entry_ignored_and_rewritten(isolated_cache, damage):
    raw = b"+1 1:0.5 3:-2.0\n-1 2:1.5\n"
    calls = []
    parse = counting_parse(calls)
    want = cached_dataset(raw, parse)
    path, fields = dataset_entry(raw, isolated_cache)
    assert list(fields) == ["sha256", "dim", "indptr", "indices", "data",
                            "labels", "crc32"]
    assert str(fields["sha256"]) == hashlib.sha256(raw).hexdigest()
    assert int(fields["dim"]) == want.dim
    del fields["crc32"]
    good = path.read_bytes()
    if damage == "corrupted":  # a flipped bit in the stored values
        bad = bytearray(good)
        bad[good.index(fields["data"].tobytes())] ^= 1
        path.write_bytes(bytes(bad))
    elif damage == "truncated":
        path.write_bytes(good[:len(good) // 2])
    elif damage == "non-canonical":  # columns swapped within row 0
        save_record(path, **dict(fields, indices=fields["indices"][[1, 0, 2]]))
    elif damage == "dtype":
        save_record(path,
                    **dict(fields, data=fields["data"].astype(np.float32)))
    else:
        other = b"-1 1:4.0\n+1 1:2.5\n"
        cached_dataset(other, parse)
        path.write_bytes(dataset_entry(other, isolated_cache)[0].read_bytes())
    calls.clear()
    assert cached_dataset(raw, parse) == want
    assert len(calls) == 1
    calls.clear()
    assert cached_dataset(raw, parse) == want
    assert calls == []  # the entry was rewritten


class TooLong:
    """A stand-in for an array of 2^31 entries that allocates none."""

    def __len__(self):
        return 2 ** 31


def test_dataset_too_long_for_a_record_is_not_cached(isolated_cache):
    # numpy lays out a subarray field only when its size fits a C int
    with pytest.raises(ValueError, match="C int"):
        np.dtype([("indices", "<i8", (len(TooLong()),))])
    parsed = mock.Mock(dim=3, indptr=TooLong(), indices=TooLong(),
                       data=TooLong(), labels=TooLong())
    assert cached_dataset(b"+1 1:1.0\n", lambda text: parsed) is parsed
    assert not isolated_cache.exists()


def test_dataset_cache_write_interrupted_leaves_nothing(isolated_cache,
                                                        monkeypatch):
    def interrupted(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(vropt.harness.os, "replace", interrupted)
    ds = cached_dataset(b"+1 1:1.0\n", parse_libsvm)
    assert ds == parse_libsvm("+1 1:1.0\n")
    assert list(isolated_cache.iterdir()) == []


@contextlib.contextmanager
def fresh_cache():
    """A new, empty $VROPT_CACHE_DIR: the examples of one hypothesis test
    share the function-scoped directory that conftest sets."""
    with tempfile.TemporaryDirectory() as cache, \
            mock.patch.dict(os.environ, {"VROPT_CACHE_DIR": cache}):
        yield Path(cache)


def no_call(*args, **kwargs):
    raise AssertionError("the cache should have been hit")


def one_row_case():
    ds = Dataset([0, 2], [0, 2], [0.5, -3.0], [1], 3)
    return LogisticProblem(ds, 0.1), 1e-8


def no_entries_case():
    ds = Dataset([0, 0, 0], [], [], [1, -1], 2)
    return LogisticProblem(ds, 1.0), 1e-8


@settings(max_examples=60, deadline=None)
@given(case=small_logistic(), f_star=st.floats(),
       grad_norm=st.floats(0.0, 1e-10))
@example(case=one_row_case(), f_star=0.25, grad_norm=0.0).via("one row")
@example(case=no_entries_case(), f_star=-math.inf,
         grad_norm=1e-10).via("no entries")
@example(case=one_row_case(), f_star=-0.0, grad_norm=0.0).via("minus zero")
@example(case=one_row_case(), f_star=math.nan, grad_norm=0.0).via("nan")
def test_cache_entries_round_trip_exactly(case, f_star, grad_norm):
    problem, _ = case
    ds = problem.dataset
    raw = serialize_libsvm(ds).encode()
    ref = ReferenceOptimum(f_star, grad_norm)
    with fresh_cache():
        assert cached_dataset(raw, lambda text: ds) is ds
        hit = cached_dataset(raw, no_call)
        assert hit.dim == ds.dim
        for name in ("indptr", "indices", "data", "labels"):
            want, stored = getattr(ds, name), getattr(hit, name)
            assert stored.dtype == want.dtype
            assert stored.tobytes() == want.tobytes()
        with mock.patch.object(vropt.harness, "compute_reference",
                               lambda problem, tol: ref):
            assert cached_reference(problem) is ref
        with mock.patch.object(vropt.harness, "compute_reference", no_call):
            got = cached_reference(problem)
    assert np.float64(got.f_star).tobytes() == np.float64(f_star).tobytes()
    assert got.grad_norm == grad_norm


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["data", "ref"]), offset=st.integers(-4000, 4000),
       byte=st.integers(0, 255))
@example(kind="data", offset="magic string", byte=0)
@example(kind="ref", offset="header length", byte=0xff)
@example(kind="data", offset="header string left open", byte=0)
@example(kind="data", offset="header syntax", byte=44)
@example(kind="ref", offset="header key of bytes", byte=66)
@example(kind="data", offset="header warns, then reads", byte=76)
@example(kind="ref", offset="header escape warns", byte=92)
@example(kind="ref", offset=-1, byte=0).via("crc32")
@example(kind="data", offset=-5, byte=0xfe).via("last label")
def test_cache_entry_with_one_byte_overwritten(kind, offset, byte):
    """Any one byte of either entry overwritten: a miss that is recomputed
    and rewritten, or a hit with bit-identical arrays; never an error or a
    warning. An offset is a place in the entry, or in an @example the name
    of a header byte (see header_offset)."""
    problem = make_logistic(12, 3, seed=53, kappa=8.0)
    raw = serialize_libsvm(problem.dataset).encode()
    calls = []
    parse = counting_parse(calls)
    true_compute = vropt.harness.compute_reference

    def counting(problem, tol=1e-10):
        calls.append(tol)
        return true_compute(problem, tol=tol)

    def load():
        if kind == "data":
            ds = cached_dataset(raw, parse)
            return [ds.indptr, ds.indices, ds.data, ds.labels, ds.dim]
        with mock.patch.object(vropt.harness, "compute_reference", counting):
            ref = cached_reference(problem)
        return [ref.f_star, ref.grad_norm]

    def as_bytes(values):
        return [np.asarray(v).tobytes() for v in values]

    with fresh_cache() as cache:
        want = as_bytes(load())
        if kind == "data":
            path, _ = dataset_entry(raw, cache)
        else:
            path = cache / f"ref-{problem_key(problem)}.npy"
        good = path.read_bytes()
        header = len(good) - np.load(path, allow_pickle=False).dtype.itemsize
        pos = offset % len(good) if isinstance(offset, int) \
            else header_offset(good, offset)
        damaged = good[:pos] + bytes([byte]) + good[pos + 1:]
        path.write_bytes(damaged)
        calls.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert as_bytes(load()) == want
        assert caught == []  # numpy's warnings on a damaged header too
        # a miss rewrites the entry; a hit leaves it as it was
        assert path.read_bytes() == (good if calls else damaged)
        if pos >= header and damaged != good:
            assert calls  # the crc32 covers every byte of the record


def header_offset(good, name):
    """The offset of the header byte that name describes in the .npy entry
    good, found from the header's text so that it moves with the record's
    layout; the byte there is checked to be the one described."""
    start = good.index(b"{")  # the header's dict, after the fixed prefix
    end = good.index(b"\n", start)  # the newline that ends the header
    spots = {
        # what the byte is, as (text it lies in, its place in that text,
        # the bytes it may be)
        "magic string": (b"\x93NUMPY", 0, b"\x93"),
        # the low byte of the 2-byte length of the rest of the header
        "header length": (b"{", -2, bytes([(end + 1 - start) % 256])),
        # the quote that closes the first key
        "header string left open": (b"{'descr'", 7, b"'"),
        # the colon after the first key: a comma there breaks the syntax
        "header syntax": (b"{'descr':", 8, b":"),
        # the space before 'fortran_order': a B there makes it bytes
        "header key of bytes": (b" 'fortran_order'", 0, b" "),
        # the last digit of the first subarray shape: an L after a digit
        # is a Python 2 long, which numpy reads with a warning
        "header warns, then reads": (b",)", -1, b"0123456789"),
        # the first letter of the first field name: a backslash before k
        # is an invalid escape, which Python warns of
        "header escape warns": (b"[('", 3, b"k"),
    }
    text, place, allowed = spots[name]
    pos = good.index(text, 0, end) + place
    assert good[pos:pos + 1] in allowed, (name, good[pos:pos + 1])
    return pos


def resave(path, damage):
    """Rewrite a cache entry with the same record in another form."""
    record = np.load(path, allow_pickle=False)
    good = path.read_bytes()
    if damage == "version 2.0":
        with open(path, "wb") as fh:
            np.lib.format.write_array(fh, record, version=(2, 0))
    elif damage == "field size":
        # the first rank-1 field, one longer; the key when there is none
        end = len(good) - record.dtype.itemsize
        sized = [n for n in record.dtype.names if record.dtype[n].ndim]
        if sized:
            name = sized[0]
            size = record.dtype[name].shape[0]
            field = f"('{name}', '{record.dtype[name].base.str}', "
            old, new = f"{field}({size},))", f"{field}({size + 1},))"
        else:
            old, new = "('key', '<U16')", "('key', '<U17')"
        header = good[:end].replace(old.encode(), new.encode())
        assert header != good[:end] and len(header) == end
        path.write_bytes(header + good[end:])
    elif damage == "trailing byte":
        path.write_bytes(good + b"\0")
    elif damage == "fortran order":
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(header, {
            "descr": np.lib.format.dtype_to_descr(record.dtype),
            "fortran_order": True, "shape": ()})
        path.write_bytes(header.getvalue() + record.tobytes())
    else:  # the fields as a pickled object
        np.save(path, np.array(record.item(), dtype=object),
                allow_pickle=True)
    assert path.read_bytes() != good


@pytest.mark.parametrize("kind", ["data", "ref"])
@pytest.mark.parametrize("damage", ["version 2.0", "field size",
                                    "trailing byte", "fortran order",
                                    "pickled"])
def test_entry_in_another_form_is_a_miss_rewritten(isolated_cache, kind,
                                                    damage):
    """Only the header np.save writes for the entry's record is read, and
    only with the record's bytes after it: another .npy form of the same
    record is a miss, rewritten with the bytes of a cold write."""
    problem = make_logistic(12, 3, seed=53, kappa=8.0)
    raw = serialize_libsvm(problem.dataset).encode()
    calls = []
    true_compute = vropt.harness.compute_reference

    def counting(problem, tol=1e-10):
        calls.append(tol)
        return true_compute(problem, tol=tol)

    def load():
        if kind == "data":
            ds = cached_dataset(raw, counting_parse(calls))
            return [ds.indptr, ds.indices, ds.data, ds.labels, ds.dim]
        with mock.patch.object(vropt.harness, "compute_reference", counting):
            ref = cached_reference(problem)
        return [ref.f_star, ref.grad_norm]

    want = [np.asarray(v).tobytes() for v in load()]
    if kind == "data":
        path, _ = dataset_entry(raw, isolated_cache)
    else:
        path = isolated_cache / f"ref-{problem_key(problem)}.npy"
    cold = path.read_bytes()
    resave(path, damage)
    calls.clear()
    assert [np.asarray(v).tobytes() for v in load()] == want
    assert len(calls) == 1
    assert path.read_bytes() == cold


def test_a_hit_uses_the_entry_in_place(isolated_cache, monkeypatch):
    problem = make_logistic(12, 3, seed=53, kappa=8.0)
    raw = serialize_libsvm(problem.dataset).encode()
    cached_dataset(raw, parse_libsvm)
    cached_reference(problem)
    records = []
    read = vropt.harness._read_entry

    def keep(path, fields):
        records.append(read(path, fields))
        return records[-1]

    monkeypatch.setattr(vropt.harness, "_read_entry", keep)
    monkeypatch.setattr(vropt.harness, "compute_reference", no_call)
    ds = cached_dataset(raw, no_call)
    ref = cached_reference(problem)
    data_record, ref_record = records
    for record in records:
        assert not record.flags.writeable
    for a in (ds.indptr, ds.indices, ds.data, ds.labels):
        assert not a.flags.writeable
        assert np.shares_memory(a, data_record)
    assert (ref.f_star, ref.grad_norm) == (float(ref_record["f_star"]),
                                           float(ref_record["grad_norm"]))


# ------------------------------------------------------ run_experiment

def test_run_experiment_identical_configs_identical_traces():
    problem = make_logistic(30, 4, seed=52, kappa=12.0)
    big_l = problem.smoothness
    make = lambda name: SolverConfig(
        "sarah", step=FixedStep(0.5 / big_l), inner=FixedLength(20),
        averaging=AveragingScheme.UNIFORM, seed=9, name=name)
    twin_a, twin_b, renamed = make("twin"), make("twin"), make("other")
    traces = run_experiment(problem, [twin_a, twin_b, renamed], passes=5.0)
    assert traces[0].points == traces[1].points
    assert [p.snapshot_index for p in traces[0].points] != \
        [p.snapshot_index for p in traces[2].points]


def test_run_experiment_budget_semantics():
    problem = make_logistic(30, 4, seed=53, kappa=10.0)
    configs = bench_configs(problem, seed=1)
    traces = run_experiment(problem, configs, passes=6.0)
    budget = 6 * problem.n
    assert [t.config_id for t in traces] == \
        ["sgd", "svrg_u", "sarah_u", "bb_svrg_w", "bb_sarah_w"]
    for t in traces:
        assert t.final.ifo_total >= budget  # ran the budget out
        assert t.points[-2].ifo_total < budget  # by less than one loop
    zero = run_experiment(problem, configs, passes=0.0)
    assert all(len(t.points) == 1 and t.final.s == 0 for t in zero)
    # 1e308 is finite, but its budget 1e308 * n is not
    for passes in (-1.0, math.inf, math.nan, 1e308):
        with pytest.raises(ValueError, match="passes \\* n must be finite"):
            run_experiment(problem, configs, passes=passes)


@pytest.mark.parametrize("passes", [3.0, 5.5])
def test_a_larger_budget_extends_the_same_trace(passes):
    # perfbench/session.py:calibrate_tta doubles the budget until a run
    # reaches its tolerance, and takes the loop that reached it from the
    # longer run: every loop of the shorter run must be a loop of the longer
    problem = make_logistic(30, 4, seed=53, kappa=10.0)
    configs = bench_configs(problem, seed=1)
    short = run_experiment(problem, configs, passes)
    long = run_experiment(problem, configs, 2 * passes)
    for a, b in zip(short, long):
        assert len(a.points) < len(b.points)
        assert a.points == b.points[:len(a.points)]


def test_run_experiment_annotates_config_errors():
    problem = make_logistic(10, 3, seed=54, kappa=8.0)
    good = SolverConfig("sgd", name="good")
    broken = SolverConfig("svrg", name="bad")
    # every config is checked before the first one runs
    with mock.patch.object(vropt.harness, "run") as run:
        with pytest.raises(ConfigError, match="config 'bad'"):
            run_experiment(problem, [good, broken], passes=1.0)
    assert run.call_count == 0


def test_run_experiment_names_the_config_in_every_value_error():
    # decay_rate's weighted-scheme domain is a plain ValueError of averaging
    problem = make_logistic(10, 3, seed=54, kappa=8.0)
    _, mu, _ = problem.constants()
    config = SolverConfig("svrg", step=FixedStep(2.0 / mu),
                          inner=FixedLength(5),
                          averaging=AveragingScheme.WEIGHTED_SVRG, name="w")
    for check in (check_experiment, run_experiment):
        with pytest.raises(ConfigError, match=r"^config 'w': weighted "
                           r"schemes need 0 < mu\*eta < 1, got mu\*eta = "):
            check(problem, [config], 1.0)
    # a ValueError raised by a run, after its checks, is named too
    with mock.patch.object(vropt.harness, "run",
                           side_effect=ValueError("late")):
        with pytest.raises(ConfigError, match=r"^config 'sgd': late$"):
            run_experiment(problem, [SolverConfig("sgd")], 1.0)


@pytest.mark.parametrize("seed,message", [
    (-1, "seed must be >= 0, got -1"),
    (np.int64(-7), "seed must be >= 0, got -7"),
    (1.5, "seed must be an integer, got 1.5"),
])
def test_experiments_reject_the_seed_as_given(seed, message):
    # the per-config seed is derived from the given one only once it is
    # valid, so the error names the seed the caller gave
    problem = make_logistic(10, 3, seed=54, kappa=8.0)
    config = SolverConfig("sgd", seed=seed, name="s")
    for check in (check_experiment, run_experiment):
        with pytest.raises(ConfigError) as info:
            check(problem, [config], 1.0)
        assert str(info.value) == f"config 's': {message}"


def test_run_experiment_plumbs_f_star():
    problem = make_ridge(8, 3, seed=55, mu=0.5)
    ref = compute_reference(problem)
    config = SolverConfig("gd", name="gd")
    trace, = run_experiment(problem, [config], passes=3.0,
                            f_star=ref.f_star)
    assert all(p.gap is not None for p in trace.points)
    bare, = run_experiment(problem, [config], passes=3.0)
    assert all(p.gap is None for p in bare.points)


def test_bench_configs_shape():
    problem = make_logistic(20, 3, seed=56, kappa=9.0)
    configs = bench_configs(problem, seed=7)
    assert [c.config_id for c in configs] == \
        ["sgd", "svrg_u", "sarah_u", "bb_svrg_w", "bb_sarah_w"]
    assert all(c.seed == 7 for c in configs)
    assert configs[1].inner.m == max(2, int(np.ceil(5 * problem.kappa)))
    assert configs[3].step.theta_kappa == pytest.approx(4 * problem.kappa)
    assert configs[4].step.theta_kappa == pytest.approx(problem.kappa)


# ----------------------------------------------------------------- CSV

def golden_traces():
    points = (
        TracePoint(s=0, eta_s=None, m_s=None, snapshot_index=None,
                   ifo_total=0, gap=1.0, grad_sq=0.5),
        TracePoint(s=1, eta_s=0.125, m_s=4, snapshot_index=3,
                   ifo_total=10, gap=0.25, grad_sq=None),
    )
    return [Trace("t1", 4, points)]


def test_trace_csv_golden_bytes():
    expected = (
        "config_id,s,eta_s,m_s,M_s,ifo_total,sample_passes,gap,grad_sq\n"
        "t1,0,,,,0,0.0,1.0,0.5\n"
        "t1,1,0.125,4,3,10,2.5,0.25,\n"
    )
    assert format_trace_csv(golden_traces()) == expected


def test_trace_csv_round_trip_exact():
    problem = make_logistic(25, 4, seed=57, kappa=10.0)
    f_star = cached_reference(problem).f_star
    traces = run_experiment(problem, bench_configs(problem, seed=2),
                            passes=4.0, f_star=f_star)
    text = format_trace_csv(traces)
    assert load_trace_csv(text) == traces


def test_trace_csv_write_and_errors(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(golden_traces(), path)
    assert load_trace_csv(path.read_text(encoding="utf-8")) == golden_traces()
    with pytest.raises(ValueError):
        format_trace_csv([])
    points = golden_traces()[0].points
    with pytest.raises(ValueError, match=r"^config id 'a,b' contains a comma$"):
        format_trace_csv([Trace("a,b", 4, points)])
    # every character str.splitlines breaks on, which load_trace_csv would
    # read as the end of a row
    for brk in ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e",
                "\x85", "\u2028", "\u2029"):
        for cid in (f"a{brk}b", f"a{brk}"):
            with pytest.raises(ValueError, match="contains a line break$"):
                format_trace_csv([Trace(cid, 4, points)])


def test_trace_csv_load_errors():
    with pytest.raises(ValueError, match="header"):
        load_trace_csv("nope\n")
    with pytest.raises(ValueError, match="cells"):
        load_trace_csv(TRACE_HEADER + "\nt1,0,,,,0\n")
    only_initial = TRACE_HEADER + "\nt1,0,,,,0,0.0,,1.0\n"
    with pytest.raises(ValueError, match="charged"):
        load_trace_csv(only_initial)


def test_rate_csv_golden_bytes():
    rows = [GridRow("svrg_u", 2.0, 0.5), GridRow("sarah_w", 1.0, None)]
    expected = (
        "scheme,x,lambda,defined\n"
        "svrg_u,2.0,0.5,true\n"
        "sarah_w,1.0,,false\n"
    )
    assert format_rate_csv(rows) == expected
    assert RATE_HEADER == "scheme,x,lambda,defined"


_NAN = math.nan


@pytest.mark.parametrize("rows", [
    # an eta sweep repeats each x once per scheme, a point given twice too
    rate_grid(["svrg_u", "sarah_u", "sarah_l"], L=1.0, mu=1e-3, sweep="eta",
              points=[0.1, 0.2, 0.1, 1.5], m=50),
    [row for figure in FIGURE_IDS for row in figure_grid(figure)],
    # 0.0 and -0.0 are one key but print apart, in either order
    [GridRow("svrg_u", 0.0, 1.0), GridRow("sarah_u", -0.0, 2.0),
     GridRow("svrg_u", -0.0, None), GridRow("sarah_u", 0.0, 0.5)],
    # nan is no key's equal, one nan object or many
    [GridRow("svrg_u", _NAN, 1.0), GridRow("sarah_u", _NAN, None),
     GridRow("svrg_u", float("nan"), 0.5), GridRow("sarah_u", -_NAN, 0.5)],
    [GridRow("svrg_u", math.inf, 1.0), GridRow("sarah_u", -math.inf, None),
     GridRow("svrg_u", math.inf, _NAN), GridRow("sarah_u", 1e308, math.inf)],
    # None values only
    [GridRow("sarah_w", 0.5, None), GridRow("sarah_u", 0.5, None)],
    # x that equal a float but print otherwise
    [GridRow("svrg_u", 5.0, 1.0), GridRow("svrg_u", 5, 1.0),
     GridRow("svrg_u", True, 1.0), GridRow("svrg_u", 1.0, 1.0),
     GridRow("svrg_u", np.float64(0.1), 1.0), GridRow("svrg_u", 0.1, 1.0)],
    [],
], ids=["repeated-x", "figures", "signed-zeros", "nans", "infinities",
        "undefined", "non-float-x", "empty"])
def test_rate_csv_matches_the_row_loop(rows):
    assert format_rate_csv(rows) == row_loop_rate_csv(rows)


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.builds(
    GridRow,
    scheme=st.sampled_from(["svrg_w", "sarah_u", "sarah_l"]),
    # a small pool makes repeats likely, 2 and 2.0 equal keys too
    x=st.one_of(st.sampled_from([0.0, -0.0, 0.1, 1e-3, _NAN, math.inf, 2,
                                 2.0]), _ANY_FLOAT, st.integers()),
    value=st.one_of(st.none(), _ANY_FLOAT)), max_size=40))
def test_rate_csv_matches_the_row_loop_for_any_rows(rows):
    assert format_rate_csv(rows) == row_loop_rate_csv(rows)
    assert format_rate_csv(iter(rows)) == row_loop_rate_csv(rows)
