import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import ScriptedRng, make_logistic, make_ridge
from vropt import (AdaptiveLength, AveragingScheme, BarzilaiBorweinStep,
                   ConfigError, DivergenceError, FixedLength, FixedStep,
                   IfoCounter, LogisticProblem, RidgeProblem,
                   SolverConfig, bb_step, bench_configs, cached_reference,
                   compute_reference, default_theta_kappa,
                   generate_synthetic, normalize_rows, run, run_experiment,
                   sarah_inner, svrg_inner)

U = AveragingScheme.UNIFORM


def identical_component_problem(n=5, d=3, mu=0.3):
    rng = np.random.default_rng(12)
    a = rng.standard_normal(d)
    return RidgeProblem(np.tile(a, (n, 1)), np.full(n, 1.5), mu)


# ---------------------------------------------------------------- config

def test_config_validation():
    problem = make_logistic(10, 4, seed=0, kappa=20.0)
    good = dict(step=FixedStep(0.1), inner=FixedLength(4), averaging=U,
                outer_loops=1)
    with pytest.raises(ConfigError):
        run(problem, SolverConfig("nope", **good))
    with pytest.raises(ConfigError):
        run(problem, SolverConfig("svrg", step=FixedStep(0.1),
                                  inner=FixedLength(4), averaging=U))
    with pytest.raises(ConfigError):
        run(problem, SolverConfig("svrg", inner=FixedLength(4), averaging=U,
                                  outer_loops=1))
    with pytest.raises(ConfigError):
        run(problem, SolverConfig("gd", averaging=U, outer_loops=1))
    with pytest.raises(ConfigError):
        run(problem, SolverConfig("sgd", step=FixedStep(0.1), outer_loops=1))
    with pytest.raises(ConfigError):  # scheme belongs to the other algorithm
        run(problem, SolverConfig("svrg", step=FixedStep(0.1),
                                  inner=FixedLength(4),
                                  averaging=AveragingScheme.WEIGHTED_SARAH,
                                  outer_loops=1))
    with pytest.raises(ConfigError):  # adaptive length needs bb
        run(problem, SolverConfig("svrg", step=FixedStep(0.1),
                                  inner=AdaptiveLength(), averaging=U,
                                  outer_loops=1))
    with pytest.raises(ConfigError):
        run(problem, SolverConfig("svrg", x0=np.zeros(3), **good))
    with pytest.raises(ConfigError):
        run(problem, SolverConfig("svrg", outer_loops=-1, step=FixedStep(0.1),
                                  inner=FixedLength(4), averaging=U))


def test_mu_zero_rejected_for_variance_reduction():
    problem = make_ridge(6, 3, seed=1, mu=0.0)
    with pytest.raises(ConfigError):
        run(problem, SolverConfig("svrg", step=FixedStep(0.01),
                                  inner=FixedLength(4), averaging=U,
                                  outer_loops=1))


def test_rule_dataclass_validation():
    with pytest.raises(ConfigError):
        FixedStep(0.0)
    with pytest.raises(ConfigError):
        FixedLength(1)
    with pytest.raises(ConfigError):
        AdaptiveLength(0.0)
    with pytest.raises(ConfigError):
        BarzilaiBorweinStep(0.0)
    with pytest.raises(ConfigError):
        BarzilaiBorweinStep(4.0, eta0=-1.0)


def test_default_theta_kappa():
    assert default_theta_kappa("svrg", AveragingScheme.WEIGHTED_SVRG, 7.0) == 28.0
    assert default_theta_kappa("svrg", U, 7.0) == 28.0
    assert default_theta_kappa("sarah", AveragingScheme.WEIGHTED_SARAH, 7.0) == 7.0
    assert default_theta_kappa("sarah", U, 7.0) == 7.0
    assert default_theta_kappa("sarah", AveragingScheme.LAST_SARAH, 7.0) == 10.5


# ---------------------------------------------------------------- bb_step

def constant_curvature_pairs(h, x_a, x_b):
    """(x, grad) of two snapshots of the quadratic (h/2)||x||^2."""
    x_a, x_b = np.asarray(x_a, dtype=float), np.asarray(x_b, dtype=float)
    return (x_a, h * x_a), (x_b, h * x_b)


def test_bb_step_constant_curvature():
    pairs = constant_curvature_pairs(1.0, [0.0, 0.0], [1.0, 2.0])
    assert bb_step(*pairs, 4.0) == pytest.approx(0.25, rel=1e-15)
    pairs = constant_curvature_pairs(3.0, [1.0], [-2.0])
    assert bb_step(*pairs, 2.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
    # the identity-Hessian value sits exactly on the interval for L = mu = 1
    pairs = constant_curvature_pairs(1.0, [0.0], [5.0])
    assert bb_step(*pairs, 4.0, constants=(1.0, 1.0)) == pytest.approx(0.25)


def test_bb_step_zero_displacement_returns_none():
    pairs = constant_curvature_pairs(2.0, [1.0, 1.0], [1.0, 1.0])
    assert bb_step(*pairs, 4.0) is None


def test_bb_step_one_ulp_displacement_returns_none():
    # snapshots one ulp apart: dx and the sign of <dx, dg> are rounding
    # noise, so the rule reuses the previous step instead of raising
    x = np.array([6.0, -2.5, 0.75])
    assert bb_step((x, np.array([1e-16, 0.0, 0.0])),
                   (np.nextafter(x, np.inf), np.array([-1e-16, 0.0, 0.0])),
                   4.0, constants=(1.0, 0.5)) is None


def test_bb_sarah_converged_to_rounding_noise_completes():
    # kappa = 100 reaches machine precision well inside 60 passes; the last
    # secant pairs are ulp-sized, and seed 104 used to fail the interval
    # assertion with eta = 5.12 outside [0.0396, 3.96]
    problem = LogisticProblem(
        normalize_rows(generate_synthetic(2000, 20, 1, 3.0)), 0.25 / 99.0)
    for seed in (104, 141):
        config, = [c for c in bench_configs(problem, seed=seed)
                   if c.config_id == "bb_sarah_w"]
        trace, = run_experiment(problem, [config], 60)
        assert trace.final.ifo_total >= 60 * problem.n
        assert trace.final.grad_sq < 1e-28


def test_bb_step_errors():
    # the gradient decreased along the displacement: <dx, dg> < 0
    with pytest.raises(ValueError, match="secant"):
        bb_step((np.array([0.0]), np.array([1.0])),
                (np.array([1.0]), np.array([0.5])), 4.0)


def test_bb_step_interval_assertion_fires():
    # fabricated near-zero curvature puts eta above 1/(theta*mu)
    with pytest.raises(AssertionError):
        bb_step((np.array([0.0]), np.array([0.0])),
                (np.array([1.0]), np.array([1e-9])), 4.0,
                constants=(1.0, 0.5))


def test_bb_step_on_logistic_secant_stays_in_interval():
    problem = make_logistic(40, 6, seed=9, kappa=30.0)
    big_l, mu, _ = problem.constants()
    rng = np.random.default_rng(3)
    x = rng.standard_normal(problem.d)
    g = problem.full_grad(x)
    x_next = x - (1.0 / big_l) * g
    pairs = (x, g), (x_next, problem.full_grad(x_next))
    for theta in (1.0, 4.0, 120.0):
        eta = bb_step(*pairs, theta, constants=(big_l, mu))
        assert 1.0 / (theta * big_l) <= eta <= 1.0 / (theta * mu)


# ------------------------------------------------- inner-loop semantics

def test_svrg_inner_equals_gd_when_components_identical():
    problem = identical_component_problem()
    eta, m, M = 0.05, 6, 4
    counter = IfoCounter()
    x0 = np.array([1.0, -0.5, 2.0])
    # uniform over 0..5, want index 4: u in [4/6, 5/6)
    rng = ScriptedRng(uniform=[0.70], ints=[0, 1, 2, 3])
    res = svrg_inner(problem, x0, eta, m, U, rng, counter)
    assert res.snapshot_index == M
    x = x0.copy()
    for _ in range(M):
        x = x - eta * problem.full_grad(x)
    assert np.allclose(res.x_next, x, atol=1e-12)


def test_sarah_inner_equals_gd_when_components_identical():
    problem = identical_component_problem()
    eta, m, M = 0.05, 6, 4
    counter = IfoCounter()
    x0 = np.array([1.0, -0.5, 2.0])
    rng = ScriptedRng(uniform=[0.70], ints=[1, 4, 2])
    res = sarah_inner(problem, x0, eta, m, U, rng, counter)
    assert res.snapshot_index == M
    x = x0.copy()
    for _ in range(M):
        x = x - eta * problem.full_grad(x)
    assert np.allclose(res.x_next, x, atol=1e-12)


def test_inner_rng_order_snapshot_draw_first():
    problem = identical_component_problem()
    x0 = np.zeros(3)
    # script exactly one uniform then M component picks; leftovers = bug
    rng = ScriptedRng(uniform=[0.3], ints=[0])  # uniform m=4 -> index 1
    res = svrg_inner(problem, x0, 0.01, 4, U, rng, IfoCounter())
    assert res.snapshot_index == 1
    assert rng.uniform == [] and rng.ints == []
    rng = ScriptedRng(uniform=[0.99], ints=[0, 0])  # index 3 -> 2 recursive
    res = sarah_inner(problem, x0, 0.01, 4, U, rng, IfoCounter())
    assert res.snapshot_index == 3
    assert rng.uniform == [] and rng.ints == []


def test_inner_ifo_costs_exact():
    problem = make_logistic(11, 4, seed=4, kappa=15.0)
    x0 = np.zeros(problem.d)
    counter = IfoCounter()
    rng = ScriptedRng(uniform=[0.7], ints=[0, 1, 2])  # M = 3 (uniform m=5 over 0..4: wait)
    res = svrg_inner(problem, x0, 0.05, 5, U, rng, counter)
    assert res.snapshot_index == 3
    assert counter.count == problem.n + 2 * 3
    counter = IfoCounter()
    rng = ScriptedRng(uniform=[0.7], ints=[0, 1])
    res = sarah_inner(problem, x0, 0.05, 5, U, rng, counter)
    assert res.snapshot_index == 3
    assert counter.count == problem.n + 2 * (3 - 1)


def test_sarah_inner_snapshot_zero_and_one():
    problem = make_logistic(7, 3, seed=5, kappa=12.0)
    x0 = np.full(problem.d, 0.3)
    counter = IfoCounter()
    res = sarah_inner(problem, x0, 0.1, 4, U, ScriptedRng(uniform=[0.0]),
                      counter)
    assert res.snapshot_index == 0
    assert np.array_equal(res.x_next, x0)
    assert counter.count == problem.n  # only the anchor gradient
    counter = IfoCounter()
    res = sarah_inner(problem, x0, 0.1, 4, U, ScriptedRng(uniform=[0.3]),
                      counter)
    assert res.snapshot_index == 1
    assert np.allclose(res.x_next, x0 - 0.1 * res.snapshot_grad, atol=0)
    assert counter.count == problem.n  # the deterministic step is free


def test_svrg_inner_snapshot_zero_returns_anchor():
    problem = make_logistic(7, 3, seed=6, kappa=12.0)
    x0 = np.full(problem.d, -0.2)
    counter = IfoCounter()
    res = svrg_inner(problem, x0, 0.1, 4, U, ScriptedRng(uniform=[0.0]),
                     counter)
    assert res.snapshot_index == 0
    assert np.array_equal(res.x_next, x0)
    assert counter.count == problem.n


def test_inner_does_not_mutate_inputs():
    problem = make_logistic(9, 4, seed=7, kappa=18.0)
    x0 = np.linspace(-1, 1, problem.d)
    keep = x0.copy()
    svrg_inner(problem, x0, 0.05, 4, U,
               ScriptedRng(uniform=[0.9], ints=[0, 1, 2]), IfoCounter())
    assert np.array_equal(x0, keep)
    sarah_inner(problem, x0, 0.05, 4, U,
                ScriptedRng(uniform=[0.9], ints=[0, 1]), IfoCounter())
    assert np.array_equal(x0, keep)


# ------------------------------------------- exact-expectation oracles

def enumerate_sarah_paths(problem, x0, eta, k_max):
    """All recursive-estimator paths with k_max sampled component picks.

    Each path carries iterates x_0..x_{k_max+1} and estimators v_0..v_{k_max};
    v_0 and x_1 are deterministic, so there are n**k_max paths."""
    n = problem.n
    g0 = problem.full_grad(x0)
    paths = []
    for picks in itertools.product(range(n), repeat=k_max):
        xs = [x0, x0 - eta * g0]
        vs = [g0]
        for t, i in enumerate(picks, start=1):
            v = vs[-1] + problem.grad_component(i, xs[t]) \
                - problem.grad_component(i, xs[t - 1])
            vs.append(v)
            xs.append(xs[t] - eta * v)
        paths.append((xs, vs))
    return paths


def test_corrected_estimator_mse_bound_enumerated():
    for problem in (make_logistic(8, 3, seed=10, kappa=9.0),
                    make_ridge(7, 3, seed=11, mu=0.5)):
        big_l = problem.smoothness
        f_star = compute_reference(problem).f_star
        rng = np.random.default_rng(8)
        for _ in range(5):
            x0 = rng.standard_normal(problem.d) * 0.8
            xk = rng.standard_normal(problem.d) * 0.8
            g0 = problem.full_grad(x0)
            gk = problem.full_grad(xk)
            mse = np.mean([
                np.sum((problem.grad_component(i, xk)
                        - problem.grad_component(i, x0) + g0 - gk) ** 2)
                for i in range(problem.n)])
            bound = 4.0 * big_l * (problem.value(xk) - f_star) \
                + 4.0 * big_l * (problem.value(x0) - f_star)
            assert mse <= bound + 1e-12


def test_recursive_identity_at_k2_enumerated():
    problem = make_ridge(4, 3, seed=13, mu=0.4)
    eta = 0.08
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal(3)
    z = rng.standard_normal(3)  # arbitrary fixed comparison point
    paths = enumerate_sarah_paths(problem, x0, eta, k_max=2)
    assert len(paths) == problem.n ** 2
    lhs = np.mean([
        float((vs[2] - problem.full_grad(xs[2])) @ (z - xs[2]))
        for xs, vs in paths])
    rhs_terms = []
    for xs, vs in paths:
        total = 0.0
        for tau in (0, 1):
            g_tau = problem.full_grad(xs[tau])
            total += float(np.sum((vs[tau] - g_tau) ** 2)
                           + vs[tau] @ vs[tau] - g_tau @ g_tau)
        rhs_terms.append(total)
    rhs = (eta / 2.0) * np.mean(rhs_terms)
    assert abs(lhs - rhs) <= 1e-10


def test_recursive_identity_paths_match_solver_iterates():
    # pin the enumeration to the shipped inner loop on one concrete path
    problem = make_ridge(4, 3, seed=13, mu=0.4)
    eta = 0.08
    x0 = np.random.default_rng(5).standard_normal(3)
    paths = enumerate_sarah_paths(problem, x0, eta, k_max=1)
    i1 = 2
    # uniform m=3 over {0,1,2}: u=0.9 -> index 2; then one pick i1
    res = sarah_inner(problem, x0, eta, 3, U,
                      ScriptedRng(uniform=[0.9], ints=[i1]), IfoCounter())
    xs, _ = paths[i1]
    assert np.allclose(res.x_next, xs[2], atol=1e-14)


def test_recursive_estimator_norm_decay_enumerated():
    problem = make_ridge(4, 3, seed=14, mu=0.6)
    big_l, mu, kappa = problem.constants()
    eta = 1.8 / (big_l + mu)
    x0 = np.random.default_rng(6).standard_normal(3) * 0.7
    decay = 1.0 - 2.0 * eta * big_l / (1.0 + kappa)
    g0_sq = float(np.sum(problem.full_grad(x0) ** 2))
    for k in (1, 2, 3):
        paths = enumerate_sarah_paths(problem, x0, eta, k_max=k)
        ev = np.mean([float(vs[k] @ vs[k]) for _, vs in paths])
        assert ev <= decay ** k * g0_sq + 1e-12


# ------------------------------------------------------------- run()

def test_gd_on_ridge_gap_monotone_to_floor():
    problem = make_ridge(6, 3, seed=15, mu=0.5)
    f_star = problem.value(problem.solve_normal_equations())
    trace = run(problem, SolverConfig("gd", outer_loops=3000), f_star=f_star)
    gaps = [p.gap for p in trace.points]
    assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-12
    assert trace.points[-1].ifo_total == 3000 * problem.n


def test_sgd_step_schedule_and_accounting():
    problem = make_logistic(25, 4, seed=16, kappa=30.0)
    big_l = problem.smoothness
    trace = run(problem, SolverConfig("sgd", outer_loops=4))
    for s in (1, 2, 3, 4):
        p = trace.points[s]
        assert p.eta_s == pytest.approx(0.05 / (big_l * s), rel=1e-15)
        assert p.m_s == problem.n and p.snapshot_index == problem.n
        assert p.ifo_total == s * problem.n


def test_run_determinism_bit_identical():
    problem = make_logistic(30, 5, seed=17, kappa=40.0)
    config = SolverConfig("sarah", step=FixedStep(1.0 / problem.smoothness),
                          inner=FixedLength(25), averaging=U, outer_loops=5,
                          seed=77)
    t1 = run(problem, config)
    t2 = run(problem, config)
    assert t1 == t2
    t3 = run(problem, SolverConfig("sarah",
                                   step=FixedStep(1.0 / problem.smoothness),
                                   inner=FixedLength(25), averaging=U,
                                   outer_loops=5, seed=78))
    assert t1 != t3


def test_evaluation_purity():
    problem = make_logistic(30, 5, seed=18, kappa=40.0)
    config = SolverConfig("svrg", step=FixedStep(0.4 / problem.smoothness),
                          inner=FixedLength(12), averaging=U, outer_loops=6,
                          seed=5)
    full = run(problem, config, evaluate=True)
    bare = run(problem, config, evaluate=False)
    assert [p.snapshot_index for p in full.points] == \
        [p.snapshot_index for p in bare.points]
    assert [p.ifo_total for p in full.points] == \
        [p.ifo_total for p in bare.points]
    assert all(p.gap is None and p.grad_sq is None for p in bare.points)


def test_run_ifo_totals_recomputable_from_trace():
    problem = make_logistic(20, 4, seed=19, kappa=25.0)
    config = SolverConfig("svrg", step=FixedStep(0.4 / problem.smoothness),
                          inner=FixedLength(9), averaging=U, outer_loops=5,
                          seed=2)
    trace = run(problem, config)
    total = 0
    for p in trace.points[1:]:
        total += problem.n + 2 * p.snapshot_index
        assert p.ifo_total == total
    config = SolverConfig("sarah", step=FixedStep(0.9 / problem.smoothness),
                          inner=FixedLength(9), averaging=U, outer_loops=5,
                          seed=2)
    trace = run(problem, config)
    total = 0
    for p in trace.points[1:]:
        total += problem.n + 2 * max(p.snapshot_index - 1, 0)
        assert p.ifo_total == total


def test_budget_stops_between_loops():
    problem = make_logistic(20, 4, seed=20, kappa=25.0)
    base = SolverConfig("gd", ifo_budget=0)
    trace = run(problem, base)
    assert len(trace.points) == 1 and trace.points[0].s == 0
    trace = run(problem, replace(base, ifo_budget=3 * problem.n))
    assert trace.final.s == 3
    trace = run(problem, replace(base, ifo_budget=3 * problem.n - 1))
    assert trace.final.s == 3  # hits the limit mid-check, stops after loop 3
    trace = run(problem, replace(base, ifo_budget=3 * problem.n + 1))
    assert trace.final.s == 4


def test_outer_loops_and_budget_combined():
    problem = make_logistic(20, 4, seed=21, kappa=25.0)
    trace = run(problem, SolverConfig("gd", outer_loops=10,
                                      ifo_budget=2 * problem.n))
    assert trace.final.s == 2
    trace = run(problem, SolverConfig("gd", outer_loops=2,
                                      ifo_budget=100 * problem.n))
    assert trace.final.s == 2


def test_custom_x0_respected_and_untouched():
    problem = make_logistic(15, 4, seed=22, kappa=20.0)
    x0 = np.linspace(0.5, -0.5, problem.d)
    keep = x0.copy()
    trace = run(problem, SolverConfig("gd", outer_loops=1, x0=x0))
    g0 = problem.full_grad(x0)
    assert trace.points[0].grad_sq == pytest.approx(float(g0 @ g0), rel=1e-12)
    assert np.array_equal(x0, keep)


def test_svrg_standard_parameterization_contracts_gap():
    kappa = 50.0
    problem = make_logistic(300, 8, seed=23, kappa=kappa)
    big_l = problem.smoothness
    f_star = cached_reference(problem).f_star
    m = int(24 * kappa) + 1
    config = SolverConfig("svrg", step=FixedStep(1.0 / (8.0 * big_l)),
                          inner=FixedLength(m), averaging=U, outer_loops=6,
                          seed=3)
    trace = run(problem, config, f_star=f_star)
    gaps = [p.gap for p in trace.points]
    ratios = [b / a for a, b in zip(gaps, gaps[1:]) if a > 1e-14]
    geo = float(np.exp(np.mean(np.log(ratios))))
    assert geo <= 0.5 + 0.25  # analytic 0.5 plus Monte-Carlo slack


def test_bb_run_bootstrap_and_interval():
    problem = make_logistic(60, 5, seed=24, kappa=35.0)
    big_l, mu, kappa = problem.constants()
    theta = kappa
    config = SolverConfig("sarah", step=BarzilaiBorweinStep(theta),
                          inner=AdaptiveLength(1.0),
                          averaging=AveragingScheme.WEIGHTED_SARAH,
                          outer_loops=7, seed=11)
    trace = run(problem, config)
    eta0 = 1.0 / (theta * mu)  # tune-free bootstrap: upper endpoint
    assert trace.points[1].eta_s == pytest.approx(eta0, rel=1e-15)
    assert trace.points[2].eta_s == pytest.approx(eta0, rel=1e-15)
    lo, hi = 1.0 / (theta * big_l), 1.0 / (theta * mu)
    for p in trace.points[1:]:
        assert lo * (1 - 1e-9) <= p.eta_s <= hi * (1 + 1e-9)
        assert p.m_s == max(2, math.ceil(1.0 / (mu * p.eta_s)))
        assert 0 <= p.snapshot_index <= p.m_s
    assert any(p.eta_s != trace.points[1].eta_s for p in trace.points[3:])


def test_bb_fixed_inner_bootstrap_uses_lower_endpoint():
    problem = make_logistic(40, 4, seed=25, kappa=30.0)
    big_l, mu, kappa = problem.constants()
    config = SolverConfig("svrg", step=BarzilaiBorweinStep(4.0 * kappa),
                          inner=FixedLength(30), averaging=U,
                          outer_loops=3, seed=4)
    trace = run(problem, config)
    assert trace.points[1].eta_s == pytest.approx(
        1.0 / (4.0 * kappa * big_l), rel=1e-15)
    assert trace.points[1].m_s == 30


def test_bb_eta0_override():
    problem = make_logistic(40, 4, seed=26, kappa=30.0)
    config = SolverConfig("svrg",
                          step=BarzilaiBorweinStep(120.0, eta0=0.001),
                          inner=FixedLength(10), averaging=U,
                          outer_loops=2, seed=4)
    trace = run(problem, config)
    assert trace.points[1].eta_s == 0.001
    assert trace.points[2].eta_s == 0.001


def test_divergence_error_carries_context():
    problem = make_logistic(20, 4, seed=27, kappa=2.0)  # mu = 0.25: unstable
    big_l = problem.smoothness
    config = SolverConfig("svrg", step=FixedStep(50.0 / big_l),
                          inner=FixedLength(50), averaging=U,
                          ifo_budget=10 ** 6, seed=1, name="boom")
    with pytest.raises(DivergenceError, match="boom") as info:
        run(problem, config)
    assert info.value.steps > 0
    assert info.value.iterate_norm > 1e100 or not \
        math.isfinite(info.value.iterate_norm)


def test_trace_shape_and_final():
    problem = make_logistic(12, 3, seed=28, kappa=10.0)
    trace = run(problem, SolverConfig("gd", outer_loops=3))
    assert len(trace.points) == 4
    assert trace.final is trace.points[-1]
    assert trace.config_id == "gd" and trace.n == problem.n
    assert trace.sample_passes(trace.final) == pytest.approx(3.0)
