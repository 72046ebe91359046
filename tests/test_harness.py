import numpy as np
import pytest

import vropt.harness
from conftest import make_logistic, make_ridge
from vropt import (AveragingScheme, ConfigError, FixedLength, FixedStep,
                   GridRow, LogisticProblem, RATE_HEADER, SolverConfig,
                   TRACE_HEADER, Trace, TracePoint, bench_configs,
                   cached_reference, compute_reference, format_rate_csv,
                   format_trace_csv, generate_synthetic, load_trace_csv,
                   normalize_rows, parse_libsvm, problem_key, run_experiment,
                   serialize_libsvm, write_trace_csv)


# ----------------------------------------------------------- reference

def test_reference_ridge_matches_normal_equations():
    problem = make_ridge(6, 3, seed=40, mu=0.4)
    ref = compute_reference(problem)
    assert ref.grad_norm <= 1e-10
    assert np.allclose(ref.x_star, problem.solve_normal_equations(),
                       atol=1e-10)
    assert ref.f_star == pytest.approx(
        problem.value(problem.solve_normal_equations()), abs=1e-14)


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
    mu_free = make_ridge(8, 9000, seed=0, mu=0.0)  # too wide for direct solve
    with pytest.raises(ValueError, match="mu"):
        compute_reference(mu_free)


def test_reference_cap_reported():
    problem = make_ridge(4, 3, seed=43, mu=0.5)
    with pytest.raises(RuntimeError, match="cap"):
        compute_reference(problem, tol=1e-200)  # below float resolution


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


# --------------------------------------------------------------- cache

def test_cache_round_trip_is_exact(tmp_path, monkeypatch):
    problem = make_logistic(12, 3, seed=46, kappa=8.0)
    ref1 = cached_reference(problem, cache_dir=tmp_path)
    files = list(tmp_path.glob("ref-*.csv"))
    assert len(files) == 1
    assert files[0].name == f"ref-{problem_key(problem)}.csv"

    def boom(*args, **kwargs):
        raise AssertionError("cache should have been hit")

    monkeypatch.setattr(vropt.harness, "compute_reference", boom)
    ref2 = cached_reference(problem, cache_dir=tmp_path)
    assert np.array_equal(ref1.x_star, ref2.x_star)
    assert ref2.f_star == ref1.f_star
    assert ref2.grad_norm == ref1.grad_norm


def test_cache_write_interrupted_leaves_nothing(tmp_path, monkeypatch):
    problem = make_logistic(12, 3, seed=46, kappa=8.0)

    def interrupted(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(vropt.harness.os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        cached_reference(problem, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_cache_file_format(tmp_path):
    problem = make_logistic(10, 4, seed=47, kappa=6.0)
    ref = cached_reference(problem, cache_dir=tmp_path)
    path = tmp_path / f"ref-{problem_key(problem)}.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# vropt-reference ")
    meta = dict(tok.split("=", 1) for tok in lines[0][2:].split()[1:])
    assert meta["key"] == problem_key(problem)
    assert int(meta["dim"]) == problem.d
    assert float(meta["f_star"]) == ref.f_star
    assert float(meta["grad_norm"]) == ref.grad_norm
    assert len(lines) == 1 + problem.d
    assert [float(v) for v in lines[1:]] == list(ref.x_star)


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
    src = tmp_path / f"ref-{problem_key(p1)}.csv"
    dst = tmp_path / f"ref-{problem_key(p2)}.csv"
    dst.write_text(src.read_text(encoding="utf-8"), encoding="utf-8")
    calls = []
    true_compute = vropt.harness.compute_reference

    def counting(problem, tol=1e-10):
        calls.append(problem_key(problem))
        return true_compute(problem, tol=tol)

    monkeypatch.setattr(vropt.harness, "compute_reference", counting)
    cached_reference(p2, cache_dir=tmp_path)  # stale key inside the file
    assert calls == [problem_key(p2)]

    # drop one component: dim check must force a recompute
    lines = src.read_text(encoding="utf-8").splitlines()
    src.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    calls.clear()
    cached_reference(p1, cache_dir=tmp_path)
    assert calls == [problem_key(p1)]

    # garbage header: ignored, recomputed, rewritten
    src.write_text("not a cache file\n", encoding="utf-8")
    calls.clear()
    ref = cached_reference(p1, cache_dir=tmp_path)
    assert calls == [problem_key(p1)]
    assert src.read_text(encoding="utf-8").startswith("# vropt-reference ")
    assert ref.grad_norm <= 1e-10


def test_cache_env_dir_used(tmp_path, monkeypatch):
    problem = make_logistic(10, 3, seed=51, kappa=6.0)
    monkeypatch.setenv("VROPT_CACHE_DIR", str(tmp_path / "via-env"))
    cached_reference(problem)
    assert (tmp_path / "via-env" /
            f"ref-{problem_key(problem)}.csv").is_file()


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
