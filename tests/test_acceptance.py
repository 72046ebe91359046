"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints one visible PASS/FAIL line (bypassing capture) so the suite
doubles as a checklist. Numbers quoted in the detail strings are recomputed
on every run; nothing is hard-coded from a previous run.
"""
import itertools
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import component_value, make_logistic, make_ridge
from vropt import (AdaptiveLength, AveragingScheme, BarzilaiBorweinStep,
                   FixedLength, FixedStep, RateQuery, SolverConfig,
                   cached_reference, compute_reference, figure_grid,
                   rate_sarah_uniform, rate_sarah_weighted, rate_svrg_uniform,
                   rate_svrg_weighted, run, run_experiment)

U = AveragingScheme.UNIFORM


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_rate_point_check(capsys):
    start = time.time()
    kappa = 1e5
    lam = rate_sarah_weighted(RateQuery(eta=0.5, m=int(5 * kappa),
                                        L=1.0, mu=1e-5))
    elapsed = time.time() - start
    ok = lam is not None and 0.75 <= lam <= 0.85 and elapsed < 1.0
    report(capsys, 1, ok,
           f"lambda_sarah_w(eta=1/(2L), m=5*kappa) = {lam:.6f} "
           f"in [0.75, 0.85] ({elapsed:.3f}s)")


def test_criterion_02_standard_parameterizations(capsys):
    start = time.time()
    svrg_vals, sarah_vals = [], []
    for kappa in (10.0, 1e3, 1e5):
        mu = 1.0 / kappa
        svrg_vals.append(rate_svrg_weighted(
            RateQuery(eta=0.125, m=int(24 * kappa) + 1, L=1.0, mu=mu)))
        sarah_vals.append(rate_sarah_weighted(
            RateQuery(eta=0.5, m=int(6 * kappa), L=1.0, mu=mu)))
    elapsed = time.time() - start
    ok = all(v is not None and v <= 0.5 for v in svrg_vals) \
        and all(v is not None and v <= 0.75 for v in sarah_vals) \
        and elapsed < 1.0
    report(capsys, 2, ok,
           f"max lambda_svrg_w(1/(8L), 24k+1) = {max(svrg_vals):.4f} <= 0.5; "
           f"max lambda_sarah_w(1/(2L), 6k) = {max(sarah_vals):.4f} <= 0.75 "
           f"over kappa in {{10, 1e3, 1e5}} ({elapsed:.3f}s)")


def test_criterion_03_figure1_dominance(capsys):
    start = time.time()
    kappa = 1e5

    def pairs(figure, w_scheme, u_scheme):
        rows = figure_grid(figure)
        by_x = {}
        for row in rows:
            by_x.setdefault(row.x, {})[row.scheme] = row.value
        out = []
        for x in sorted(by_x):
            w, u = by_x[x].get(w_scheme), by_x[x].get(u_scheme)
            if w is not None and u is not None:
                out.append((x, w, u))
        return out

    fig_a = pairs("1a", "svrg_w", "svrg_u")
    a_dominates = all(w <= u for _, w, u in fig_a)
    a_strict = min(w / u for _, w, u in fig_a)
    tail = [(x, w, u) for x, w, u in pairs("1b", "sarah_w", "sarah_u")
            if x >= 10 * kappa]
    b_dominates = all(w <= u for _, w, u in tail)
    b_strict = min(w / u for _, w, u in tail)
    elapsed = time.time() - start
    # both 1b bounds share the asymptote eta*L/(2-eta*L), so the strict
    # factor on the tail is 0.95 rather than 1a's 0.9
    ok = fig_a and tail and a_dominates and a_strict < 0.9 \
        and b_dominates and b_strict < 0.95 and elapsed < 5.0
    report(capsys, 3, ok,
           f"1a: w<=u at {len(fig_a)} points, min w/u = {a_strict:.3f} < 0.9; "
           f"1b tail m>=10*kappa: w<=u at {len(tail)} points, "
           f"min w/u = {b_strict:.3f} < 0.95 ({elapsed:.3f}s)")


def enumerate_recursive_paths(problem, x0, eta, k_max):
    """All recursive-estimator paths with k_max component picks; each path
    holds iterates x_0..x_{k_max+1} and estimators v_0..v_{k_max}."""
    g0 = problem.full_grad(x0)
    paths = []
    for picks in itertools.product(range(problem.n), repeat=k_max):
        xs = [x0, x0 - eta * g0]
        vs = [g0]
        for t, i in enumerate(picks, start=1):
            v = vs[-1] + problem.grad_component(i, xs[t]) \
                - problem.grad_component(i, xs[t - 1])
            vs.append(v)
            xs.append(xs[t] - eta * v)
        paths.append((xs, vs))
    return paths


def test_criterion_04_exact_expectation_oracles(capsys):
    start = time.time()
    rng = np.random.default_rng(71)

    # corrected-estimator mean-squared-error bound, full enumeration
    mse_ok, mse_margin = True, math.inf
    for problem in (make_logistic(5, 3, seed=70, kappa=8.0),
                    make_ridge(5, 3, seed=70, mu=0.5)):
        big_l = problem.smoothness
        f_star = compute_reference(problem).f_star
        for _ in range(4):
            x0 = rng.standard_normal(problem.d) * 0.8
            xk = rng.standard_normal(problem.d) * 0.8
            g0, gk = problem.full_grad(x0), problem.full_grad(xk)
            mse = np.mean([
                np.sum((problem.grad_component(i, xk)
                        - problem.grad_component(i, x0) + g0 - gk) ** 2)
                for i in range(problem.n)])
            bound = 4 * big_l * (problem.value(xk) - f_star) \
                + 4 * big_l * (problem.value(x0) - f_star)
            mse_ok &= mse <= bound + 1e-12
            mse_margin = min(mse_margin, bound - mse)

    # inner-product identity for the recursive estimator at k = 2
    problem = make_ridge(4, 3, seed=72, mu=0.4)
    eta = 0.08
    x0, z = rng.standard_normal(3), rng.standard_normal(3)
    paths = enumerate_recursive_paths(problem, x0, eta, k_max=2)
    lhs = np.mean([float((vs[2] - problem.full_grad(xs[2])) @ (z - xs[2]))
                   for xs, vs in paths])
    rhs_terms = []
    for xs, vs in paths:
        total = 0.0
        for tau in (0, 1):
            g_tau = problem.full_grad(xs[tau])
            total += float(np.sum((vs[tau] - g_tau) ** 2)
                           + vs[tau] @ vs[tau] - g_tau @ g_tau)
        rhs_terms.append(total)
    identity_err = abs(lhs - (eta / 2) * np.mean(rhs_terms))

    # geometric decay of E||v_k||^2, full enumeration for k <= 3
    problem = make_ridge(4, 3, seed=73, mu=0.6)
    big_l, mu, kappa = problem.constants()
    eta = 1.8 / (big_l + mu)
    x0 = rng.standard_normal(3) * 0.7
    decay = 1.0 - 2.0 * eta * big_l / (1.0 + kappa)
    g0_sq = float(np.sum(problem.full_grad(x0) ** 2))
    decay_ok = True
    for k in (1, 2, 3):
        ev = np.mean([float(vs[k] @ vs[k]) for _, vs in
                      enumerate_recursive_paths(problem, x0, eta, k_max=k)])
        decay_ok &= ev <= decay ** k * g0_sq + 1e-12

    elapsed = time.time() - start
    ok = mse_ok and identity_err <= 1e-10 and decay_ok and elapsed < 10.0
    report(capsys, 4, ok,
           f"MSE bound: min margin {mse_margin:.3e} >= 0; k=2 identity: "
           f"|lhs-rhs| = {identity_err:.2e} <= 1e-10; E||v_k||^2 decay holds "
           f"for k<=3 ({elapsed:.3f}s)")


def test_criterion_05_bb_interval_and_adaptive_length(capsys):
    start = time.time()
    kappa = 200.0
    problem = make_logistic(1000, 15, seed=74, kappa=kappa)
    big_l, mu, _ = problem.constants()
    configs = [
        SolverConfig("sarah", step=BarzilaiBorweinStep(kappa),
                     inner=AdaptiveLength(1.0),
                     averaging=AveragingScheme.WEIGHTED_SARAH,
                     seed=0, name="bb_sarah_w"),
        SolverConfig("svrg", step=BarzilaiBorweinStep(4.0 * kappa),
                     inner=AdaptiveLength(1.0),
                     averaging=AveragingScheme.WEIGHTED_SVRG,
                     seed=0, name="bb_svrg_w"),
    ]
    traces = run_experiment(problem, configs, passes=40.0)
    interval_ok = length_ok = True
    loops = 0
    for trace, config in zip(traces, configs):
        theta = config.step.theta_kappa
        lo, hi = 1.0 / (theta * big_l), 1.0 / (theta * mu)
        c = config.inner.c
        for p in trace.points[1:]:
            loops += 1
            interval_ok &= lo <= p.eta_s <= hi
            length_ok &= p.m_s == math.ceil(c / (mu * p.eta_s)) \
                and p.m_s >= 2
    elapsed = time.time() - start
    ok = loops > 0 and interval_ok and length_ok and elapsed < 30.0
    report(capsys, 5, ok,
           f"eta_s in [1/(theta*L), 1/(theta*mu)] and "
           f"m_s == ceil(c/(mu*eta_s)) on all {loops} recorded loops of two "
           f"40-pass secant-step runs ({elapsed:.3f}s)")


def test_criterion_06_empirical_linear_convergence(capsys):
    start = time.time()
    kappa = 100.0
    problem = make_logistic(500, 10, seed=60, kappa=kappa)
    big_l, mu, _ = problem.constants()
    f_star = cached_reference(problem).f_star
    lam_svrg = rate_svrg_uniform(
        RateQuery(0.1 / big_l, int(2 * kappa), big_l, mu))
    lam_sarah = rate_sarah_uniform(
        RateQuery(0.5 / big_l, int(4.5 * kappa), big_l, mu))
    assert lam_sarah < 1.0  # the criterion's non-vacuous case
    svrg_ratios, sarah_ratios = [], []
    for seed in range(10):
        trace = run(problem, SolverConfig(
            "svrg", step=FixedStep(0.1 / big_l),
            inner=FixedLength(int(2 * kappa)), averaging=U,
            outer_loops=10, seed=seed), f_star=f_star)
        gaps = [p.gap for p in trace.points]
        svrg_ratios += [b / a for a, b in zip(gaps, gaps[1:]) if a > 1e-15]
        trace = run(problem, SolverConfig(
            "sarah", step=FixedStep(0.5 / big_l),
            inner=FixedLength(int(4.5 * kappa)), averaging=U,
            outer_loops=10, seed=seed), f_star=f_star)
        gs = [p.grad_sq for p in trace.points]
        sarah_ratios += [b / a for a, b in zip(gs, gs[1:]) if a > 1e-26]
    geo_svrg = float(np.exp(np.mean(np.log(svrg_ratios))))
    geo_sarah = float(np.exp(np.mean(np.log(sarah_ratios))))
    elapsed = time.time() - start
    ok = geo_svrg <= 1.1 * lam_svrg and geo_sarah <= 1.1 * lam_sarah \
        and elapsed < 120.0
    report(capsys, 6, ok,
           f"geometric-mean contraction over 10 seeds: corrected-estimator "
           f"gap {geo_svrg:.3f} <= {1.1 * lam_svrg:.3f}; recursive-estimator "
           f"grad_sq {geo_sarah:.3f} <= {1.1 * lam_sarah:.3f} ({elapsed:.1f}s)")


def test_criterion_07_benchmark_ordering(capsys):
    start = time.time()
    kappa = 500.0
    problem = make_logistic(2000, 20, seed=61, kappa=kappa)
    big_l, mu, _ = problem.constants()
    configs = [
        SolverConfig("sgd", seed=0, name="sgd"),
        SolverConfig("sarah", step=FixedStep(0.5 / big_l),
                     inner=FixedLength(math.ceil(4.5 * kappa)), averaging=U,
                     seed=0, name="sarah_tuned"),
        SolverConfig("sarah", step=BarzilaiBorweinStep(kappa),
                     inner=AdaptiveLength(1.0),
                     averaging=AveragingScheme.WEIGHTED_SARAH,
                     seed=0, name="bb_sarah_w"),
    ]
    traces = run_experiment(problem, configs, passes=40.0)  # no divergence
    final = {t.config_id: t.final.grad_sq for t in traces}
    tuned_ratio = final["sgd"] / final["sarah_tuned"]
    bb_ratio = final["sgd"] / final["bb_sarah_w"]
    elapsed = time.time() - start
    ok = tuned_ratio >= 1e3 and bb_ratio >= 1e3 and elapsed < 300.0
    report(capsys, 7, ok,
           f"after 40 passes (n=2000, kappa=500): grad_sq ratio sgd/tuned = "
           f"{tuned_ratio:.1e}, sgd/tune-free-bb = {bb_ratio:.1e}, both "
           f">= 1e3; no divergence ({elapsed:.1f}s)")


def test_criterion_08_averaging_regimes(capsys):
    start = time.time()
    kappa = 100.0
    problem = make_logistic(500, 10, seed=62, kappa=kappa)
    big_l, mu, _ = problem.constants()
    f_star = cached_reference(problem).f_star
    m = math.ceil(5 * kappa)
    budget = math.ceil(20.0 * problem.n)

    def medians(eta_over_l):
        finals = {"w": [], "l": []}
        for seed in range(10):
            for tag, avg in (("w", AveragingScheme.WEIGHTED_SARAH),
                             ("l", AveragingScheme.LAST_SARAH)):
                trace = run(problem, SolverConfig(
                    "sarah", step=FixedStep(eta_over_l / big_l),
                    inner=FixedLength(m), averaging=avg, seed=seed,
                    ifo_budget=budget), f_star=f_star)
                finals[tag].append(trace.final.gap)
        return (float(np.median(finals["w"])),
                float(np.median(finals["l"])))

    big_w, big_l_avg = medians(0.9)
    small_w, small_l_avg = medians(0.06)
    elapsed = time.time() - start
    ok = big_w <= big_l_avg and small_l_avg <= small_w and elapsed < 300.0
    report(capsys, 8, ok,
           f"median final gap over 10 seeds: eta=0.9/L tail-weighted "
           f"{big_w:.2e} <= last {big_l_avg:.2e}; eta=0.06/L last "
           f"{small_l_avg:.2e} <= tail-weighted {small_w:.2e} ({elapsed:.1f}s)")


def test_criterion_09_gradient_correctness(capsys):
    start = time.time()
    h = 1e-6
    problems = [
        make_logistic(20, 5, seed=75, kappa=12.0),
        make_logistic(15, 4, seed=76, kappa=40.0),
        make_ridge(12, 4, seed=77, mu=0.3),
        make_ridge(8, 6, seed=78, mu=1.2),
    ]
    rng = np.random.default_rng(79)
    worst = 0.0
    probes = 0
    for problem in problems:
        for _ in range(25):
            probes += 1
            i = int(rng.integers(problem.n))
            x = rng.standard_normal(problem.d)
            grad = problem.grad_component(i, x)
            fd = np.empty(problem.d)
            for j in range(problem.d):
                e = np.zeros(problem.d)
                e[j] = h
                fd[j] = (component_value(problem, i, x + e)
                         - component_value(problem, i, x - e)) / (2 * h)
            rel = float(np.linalg.norm(fd - grad)
                        / max(np.linalg.norm(grad), 1e-12))
            worst = max(worst, rel)
    elapsed = time.time() - start
    ok = probes == 100 and worst <= 1e-5 and elapsed < 10.0
    report(capsys, 9, ok,
           f"central finite differences on {probes} random component probes: "
           f"worst relative error {worst:.2e} <= 1e-5 ({elapsed:.2f}s)")


def test_criterion_10_cli_determinism(capsys, tmp_path):
    start = time.time()

    def invoke(args):
        proc = subprocess.run([sys.executable, "-m", "vropt", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc

    data = tmp_path / "data.libsvm"
    checked = []
    for attempt in ("first", "second"):
        sub = tmp_path / attempt
        sub.mkdir()
        invoke(["gen", "--n", "40", "--d", "4", "--seed", "5",
                "--out", str(sub / "data.libsvm")])
        # about 20,000 entries: the writer formats more than one block
        invoke(["gen", "--n", "2000", "--d", "20", "--seed", "3",
                "--out", str(sub / "blocks.libsvm")])
        if attempt == "first":
            data.write_bytes((sub / "data.libsvm").read_bytes())
        # the first start solves the reference and caches it, the second
        # reads it back
        (sub / "reference.txt").write_text(invoke(
            ["reference", "--data", str(data), "--mu", "0.02",
             "--normalize"]).stdout, encoding="utf-8")
        invoke(["run", "--data", str(data), "--mu", "0.02", "--normalize",
                "--algo", "sarah", "--step", "bb", "--passes", "10",
                "--out", str(sub / "trace.csv")])
        invoke(["rates", "--figure", "2", "--out", str(sub / "rates.csv")])
        invoke(["bench", "--data", str(data), "--mu", "0.02", "--normalize",
                "--passes", "4", "--out-dir", str(sub / "bench"), "--plot"])
    names = ["data.libsvm", "blocks.libsvm", "reference.txt", "trace.csv",
             "rates.csv", "bench/comparison.csv", "bench/sgd.csv",
             "bench/svrg_u.csv", "bench/sarah_u.csv", "bench/bb_svrg_w.csv",
             "bench/bb_sarah_w.csv", "bench/bench.svg"]
    same = []
    for name in names:
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        same.append(a == b)
        checked.append(name)
    elapsed = time.time() - start
    ok = all(same)
    report(capsys, 10, ok,
           f"{len(checked)} outputs from repeated gen/reference/run/rates/"
           f"bench invocations are byte-identical ({elapsed:.1f}s)")
