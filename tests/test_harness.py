import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.special import expit

import vropt.harness
from conftest import make_logistic, make_ridge, ridge_minimizer
from vropt import (AveragingScheme, ConfigError, Dataset, FixedLength,
                   FixedStep, GridRow, LogisticProblem, RATE_HEADER,
                   RidgeProblem, SolverConfig, TRACE_HEADER, Trace, TracePoint,
                   bench_configs, cached_dataset, cached_reference,
                   compute_reference, format_rate_csv, format_trace_csv,
                   generate_synthetic, load_trace_csv, normalize_rows,
                   parse_libsvm, problem_key, run_experiment,
                   serialize_libsvm, write_trace_csv)


# ----------------------------------------------------------- reference

def test_reference_ridge_matches_normal_equations():
    problem = make_ridge(6, 3, seed=40, mu=0.4)
    ref = compute_reference(problem)
    assert ref.grad_norm <= 1e-10
    assert np.allclose(ref.x_star, ridge_minimizer(problem), atol=1e-10)
    assert ref.f_star == pytest.approx(
        problem.value(ridge_minimizer(problem)), abs=1e-14)


def test_reference_logistic_meets_tolerance():
    problem = make_logistic(12, 3, seed=41, kappa=5.0)
    ref = compute_reference(problem, tol=1e-8)
    g = problem.full_grad(ref.x_star)
    assert float(np.linalg.norm(g)) <= 1e-8
    assert ref.grad_norm == pytest.approx(float(np.linalg.norm(g)))
    assert ref.f_star == pytest.approx(problem.value(ref.x_star))


def test_reference_validation():
    problem = make_logistic(10, 3, seed=42, kappa=5.0)
    with pytest.raises(ValueError):
        compute_reference(problem, tol=0.0)
    with pytest.raises(ValueError):
        compute_reference(problem, tol=-1e-8)
    for mu_free in (make_ridge(8, 9000, seed=0, mu=0.0),
                    make_ridge(8, 3, mu=0.0)):
        with pytest.raises(ValueError, match="mu"):
            compute_reference(mu_free)


def test_reference_cap_reported():
    problem = make_ridge(4, 3, seed=43, mu=0.5)
    with pytest.raises(RuntimeError, match="cap"):
        compute_reference(problem, tol=1e-200)  # below float resolution


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
    ref = compute_reference(problem, tol=tol)
    assert ref.grad_norm <= tol
    g = problem.full_grad(ref.x_star)
    assert ref.grad_norm == float(np.linalg.norm(g))
    assert ref.f_star == problem.value(ref.x_star)
    # both points have gradient norm <= tol, so each lies within tol/mu of
    # the minimizer of the mu-strongly convex objective
    x_gd = plain_descent(problem, tol)
    assert np.linalg.norm(ref.x_star - x_gd) <= 2.0 * tol / problem.mu


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
    # the line search meets a flat f at gradient norm 3.6e-10; handing over
    # to 1/L descent there took 71 evaluations in all
    assert 0 < len(reference_counters(102)) <= 20


def test_reference_wide_ridge_goes_through_lbfgs():
    # n = 8 rows make a small dual system for the check
    n, mu = 8, 1.0
    rng = np.random.default_rng(49)
    a, y = rng.standard_normal((n, 5000)), rng.standard_normal(n)
    ref = compute_reference(RidgeProblem(a, y, mu))
    assert ref.grad_norm <= 1e-10
    dual = np.linalg.solve(a @ a.T / n + mu * np.eye(n), y / n)
    assert np.linalg.norm(ref.x_star - a.T @ dual) <= 2e-10 / mu


def test_reference_line_search_shrinks_non_finite_trials():
    base = make_logistic(30, 4, seed=1, kappa=1000.0, sep=3.0)
    x_star = compute_reference(base).x_star
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
    ref = compute_reference(problem)
    assert walled  # some trial step crossed the wall
    # and was shrunk, never taken
    assert np.linalg.norm(ref.x_star) <= radius
    assert ref.grad_norm <= 1e-10
    assert math.isfinite(ref.f_star)
    assert np.linalg.norm(ref.x_star - x_star) <= 2e-10 / problem.mu


def test_reference_gives_up_line_search_where_rounding_decides():
    # f stops resolving a decrease while the gradient norm is still above
    # tol; accepting trials that pass the Armijo test by rounding alone
    # stalled L-BFGS here until the iteration cap
    ds = Dataset([0, 1, 1, 2, 3, 3, 4, 4, 5], [0] * 5,
                 [-12.136171105831217, -11.575238811145066, -6.080448236823193,
                  -4.034295896026006, 9.965939729017983],
                 [-1, 1, 1, 1, -1, -1, 1, 1], 1)
    problem = LogisticProblem(ds, 36.07234908141233)
    ref = compute_reference(problem, tol=5.236862054879553e-10)
    assert ref.grad_norm <= 5.236862054879553e-10


def test_reference_ranks_flat_trials_by_gradient_norm():
    # kappa 9394: the first trial of a late line search equals f up to
    # rounding and has a larger gradient norm. Handing over to 1/L descent
    # there took 9719 evaluations; halving on to a trial with a smaller
    # gradient norm takes 78
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
    text = "+1 1:1.0\n-1 2:2.0\n"
    assert problem_key(LogisticProblem(parse_libsvm(text), 0.1)) != \
        problem_key(LogisticProblem(parse_libsvm(text, dim=5), 0.1))


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

def test_cache_round_trip_is_exact(tmp_path, monkeypatch):
    problem = make_logistic(12, 3, seed=46, kappa=8.0)
    ref1 = cached_reference(problem, cache_dir=tmp_path)
    files = list(tmp_path.glob("ref-*"))
    assert len(files) == 1
    assert files[0].name == f"ref-{problem_key(problem)}.npz"

    def boom(*args, **kwargs):
        raise AssertionError("cache should have been hit")

    monkeypatch.setattr(vropt.harness, "compute_reference", boom)
    ref2 = cached_reference(problem, cache_dir=tmp_path)
    assert ref2.x_star.tobytes() == ref1.x_star.tobytes()
    assert ref2.f_star == ref1.f_star
    assert ref2.grad_norm == ref1.grad_norm


def test_cache_write_interrupted_leaves_nothing(tmp_path, monkeypatch):
    problem = make_logistic(12, 3, seed=46, kappa=8.0)

    def failed(src, dst):
        raise OSError("disk full")

    def interrupted(src, dst):
        raise KeyboardInterrupt

    # a failed write is ignored; an interrupt propagates; neither leaves
    # a file behind
    monkeypatch.setattr(vropt.harness.os, "replace", failed)
    ref = cached_reference(problem, cache_dir=tmp_path)
    assert ref.f_star == compute_reference(problem).f_star
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setattr(vropt.harness.os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cached_reference(problem, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_cache_file_format(tmp_path):
    problem = make_logistic(10, 4, seed=47, kappa=6.0)
    ref = cached_reference(problem, tol=1e-9, cache_dir=tmp_path)
    path = tmp_path / f"ref-{problem_key(problem)}.npz"
    with np.load(path, allow_pickle=False) as entry:
        fields = {name: entry[name] for name in entry.files}
    assert set(fields) == {"meta", "x_star"}
    meta = fields["meta"]
    assert meta.dtype.names == ("key", "dim", "tol", "f_star", "grad_norm")
    assert str(meta["key"]) == problem_key(problem)
    assert meta.dtype["dim"] == "<i8" and int(meta["dim"]) == problem.d
    assert float(meta["tol"]) == 1e-9
    assert float(meta["f_star"]) == ref.f_star
    assert float(meta["grad_norm"]) == ref.grad_norm
    assert fields["x_star"].dtype == "<f8"
    assert fields["x_star"].tobytes() == ref.x_star.tobytes()


def test_cache_rejected_when_not_tight_enough(tmp_path, monkeypatch):
    problem = make_logistic(12, 3, seed=48, kappa=8.0)
    loose = cached_reference(problem, tol=1e-4, cache_dir=tmp_path)
    assert loose.grad_norm > 1e-10  # descent stops at the first crossing
    calls = []
    true_compute = vropt.harness.compute_reference

    def counting(problem, tol=1e-10):
        calls.append(tol)
        return true_compute(problem, tol=tol)

    monkeypatch.setattr(vropt.harness, "compute_reference", counting)
    tight = cached_reference(problem, tol=1e-10, cache_dir=tmp_path)
    assert calls == [1e-10]
    assert tight.grad_norm <= 1e-10
    # the cache now holds the tighter solution; a loose request reuses it
    calls.clear()
    again = cached_reference(problem, tol=1e-4, cache_dir=tmp_path)
    assert calls == []
    assert again.grad_norm == tight.grad_norm


def test_cache_rejected_on_key_or_shape_mismatch(tmp_path, monkeypatch):
    p1 = make_logistic(12, 3, seed=49, kappa=8.0)
    p2 = make_logistic(12, 3, seed=50, kappa=8.0)
    cached_reference(p1, cache_dir=tmp_path)
    src = tmp_path / f"ref-{problem_key(p1)}.npz"
    dst = tmp_path / f"ref-{problem_key(p2)}.npz"
    good = src.read_bytes()
    dst.write_bytes(good)
    calls = []
    true_compute = vropt.harness.compute_reference

    def counting(problem, tol=1e-10):
        calls.append(problem_key(problem))
        return true_compute(problem, tol=tol)

    monkeypatch.setattr(vropt.harness, "compute_reference", counting)
    cached_reference(p2, cache_dir=tmp_path)  # stale key inside the file
    assert calls == [problem_key(p2)]

    # drop one component: the shape check must force a recompute
    with np.load(src, allow_pickle=False) as entry:
        fields = {name: entry[name] for name in entry.files}
    np.savez(src, **dict(fields, x_star=fields["x_star"][:-1]))
    calls.clear()
    cached_reference(p1, cache_dir=tmp_path)
    assert calls == [problem_key(p1)]

    # truncated or garbage: ignored, recomputed, rewritten
    for bad in (good[:len(good) // 2], b"not a cache file\n"):
        src.write_bytes(bad)
        calls.clear()
        ref = cached_reference(p1, cache_dir=tmp_path)
        assert calls == [problem_key(p1)]
        assert src.read_bytes()[:2] == b"PK"  # an .npz archive again
        assert ref.grad_norm <= 1e-10
    calls.clear()
    cached_reference(p1, cache_dir=tmp_path)
    assert calls == []


def test_cache_env_dir_used(tmp_path, monkeypatch):
    problem = make_logistic(10, 3, seed=51, kappa=6.0)
    monkeypatch.setenv("VROPT_CACHE_DIR", str(tmp_path / "via-env"))
    cached_reference(problem)
    assert (tmp_path / "via-env" /
            f"ref-{problem_key(problem)}.npz").is_file()


def counting_parse(calls):
    def parse(text):
        calls.append(text)
        return parse_libsvm(text)
    return parse


def test_dataset_cache_crlf_and_lf_parse_equal(tmp_path):
    text = serialize_libsvm(generate_synthetic(20, 5, seed=52,
                                               separation=2.0))
    calls = []
    parse = counting_parse(calls)
    datasets = [cached_dataset(raw, parse, tmp_path)
                for raw in (text.encode(), text.replace("\n", "\r\n").encode())
                for _ in range(2)]
    assert len(calls) == 2  # one miss per distinct content
    assert len(list(tmp_path.glob("data-*.npz"))) == 2
    assert all(ds == datasets[0] for ds in datasets)


def dataset_entry(raw, tmp_path):
    """The cached_dataset entry path for raw and its arrays."""
    digest = hashlib.sha256(raw).hexdigest()
    path = tmp_path / f"data-{digest[:16]}.npz"
    with np.load(path, allow_pickle=False) as entry:
        return path, {name: entry[name] for name in entry.files}


@pytest.mark.parametrize("damage", ["corrupted", "truncated", "non-canonical",
                                    "dtype", "other file"])
def test_dataset_cache_bad_entry_ignored_and_rewritten(tmp_path, damage):
    raw = b"+1 1:0.5 3:-2.0\n-1 2:1.5\n"
    calls = []
    parse = counting_parse(calls)
    want = cached_dataset(raw, parse, tmp_path)
    path, fields = dataset_entry(raw, tmp_path)
    assert set(fields) == {"meta", "indptr", "indices", "data", "labels"}
    assert str(fields["meta"]["sha256"]) == hashlib.sha256(raw).hexdigest()
    assert int(fields["meta"]["dim"]) == want.dim
    good = path.read_bytes()
    if damage == "corrupted":  # a flipped bit in the stored values
        bad = bytearray(good)
        bad[good.index(fields["data"].tobytes())] ^= 1
        path.write_bytes(bytes(bad))
    elif damage == "truncated":
        path.write_bytes(good[:len(good) // 2])
    elif damage == "non-canonical":  # columns swapped within row 0
        np.savez(path, **dict(fields, indices=fields["indices"][[1, 0, 2]]))
    elif damage == "dtype":
        np.savez(path, **dict(fields, data=fields["data"].astype(np.float32)))
    else:
        other = b"-1 1:4.0\n+1 1:2.5\n"
        cached_dataset(other, parse, tmp_path)
        path.write_bytes(dataset_entry(other, tmp_path)[0].read_bytes())
    calls.clear()
    assert cached_dataset(raw, parse, tmp_path) == want
    assert len(calls) == 1
    calls.clear()
    assert cached_dataset(raw, parse, tmp_path) == want
    assert calls == []  # the entry was rewritten


def test_dataset_cache_write_interrupted_leaves_nothing(tmp_path, monkeypatch):
    def interrupted(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(vropt.harness.os, "replace", interrupted)
    ds = cached_dataset(b"+1 1:1.0\n", parse_libsvm, tmp_path)
    assert ds == parse_libsvm("+1 1:1.0\n")
    assert list(tmp_path.iterdir()) == []


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
    with pytest.raises(ValueError):
        run_experiment(problem, configs, passes=-1.0)


def test_run_experiment_annotates_config_errors():
    problem = make_logistic(10, 3, seed=54, kappa=8.0)
    broken = SolverConfig("svrg", name="bad")
    with pytest.raises(ConfigError, match="config 'bad'"):
        run_experiment(problem, [broken], passes=1.0)


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
    with pytest.raises(ValueError, match="comma"):
        format_trace_csv([Trace("a,b", 4, golden_traces()[0].points)])


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
