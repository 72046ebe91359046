"""The fused inner loop against a plain loop built from grad_component.

svrg_inner, sarah_inner and run() share one kernel that works on CSR rows
and scalar loss derivatives. These tests pin it to the textbook updates,
x <- x - eta*(grad f_i(x) - grad f_i(x0) + g) and
v <- v + grad f_i(x_k) - grad f_i(x_{k-1}), x <- x - eta*v,
on the same component picks.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ScriptedRng, make_logistic, make_ridge
from vropt import (AveragingScheme, DivergenceError, FixedLength, FixedStep,
                   IfoCounter, SolverConfig, run, sarah_inner, svrg_inner)
from vropt.averaging import sample_snapshot_index, weights

U = AveragingScheme.UNIFORM
MAX_M = 12

PROBLEMS = [
    make_logistic(9, 4, seed=90, kappa=15.0),
    make_logistic(6, 7, seed=91, kappa=400.0),
    make_ridge(8, 3, seed=92, mu=0.4),
    make_ridge(5, 6, seed=93, mu=0.05),
]


def finite(x):
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.all(np.isfinite(x))) and math.isfinite(float(x @ x))


def oracle_svrg(problem, x0, g, eta, picks):
    x = x0.copy()
    for k, i in enumerate(picks, start=1):
        x = x - eta * (problem.grad_component(i, x)
                       - problem.grad_component(i, x0) + g)
        if not finite(x):
            return x, k
    return x, None


def oracle_sarah(problem, x0, g, eta, upto, picks):
    """Iterate x_upto of the recursive chain; picks has max(upto-1, 0)
    entries."""
    if upto == 0:
        return x0.copy(), None
    x_prev, v = x0, g
    x = x0 - eta * v
    if not finite(x):
        return x, 1
    for k, i in enumerate(picks, start=2):
        v = v + problem.grad_component(i, x) \
            - problem.grad_component(i, x_prev)
        x_prev, x = x, x - eta * v
        if not finite(x):
            return x, k
    return x, None


@settings(max_examples=150, deadline=None)
@given(which=st.integers(0, len(PROBLEMS) - 1),
       x_seed=st.integers(0, 2 ** 32 - 1),
       eta_scale=st.floats(0.01, 1.0),
       m=st.integers(2, MAX_M),
       u=st.floats(0.0, 1.0, exclude_max=True),
       raw_picks=st.lists(st.integers(0, 10 ** 6), min_size=MAX_M,
                          max_size=MAX_M))
def test_inner_loops_match_grad_component_loop(which, x_seed, eta_scale, m,
                                               u, raw_picks):
    problem = PROBLEMS[which]
    n = problem.n
    x0 = np.random.default_rng(x_seed).standard_normal(problem.d)
    eta = eta_scale / problem.smoothness
    snap = sample_snapshot_index(weights(U, m, problem.mu, eta),
                                 ScriptedRng(uniform=[u]))
    picks = [p % n for p in raw_picks]
    g = problem.full_grad(x0)
    scale = max(1.0, float(np.linalg.norm(x0)))

    counter = IfoCounter()
    rng = ScriptedRng(uniform=[u], ints=picks[:snap])
    res = svrg_inner(problem, x0, eta, m, U, rng, counter)
    ref, _ = oracle_svrg(problem, x0, g, eta, picks[:snap])
    assert res.snapshot_index == snap
    assert rng.ints == [] and rng.uniform == []
    assert counter.count == n + 2 * snap
    assert np.linalg.norm(res.x_next - ref) <= 1e-10 * scale

    counter = IfoCounter()
    steps = max(snap - 1, 0)
    rng = ScriptedRng(uniform=[u], ints=picks[:steps])
    res = sarah_inner(problem, x0, eta, m, U, rng, counter)
    ref, _ = oracle_sarah(problem, x0, g, eta, snap, picks[:steps])
    assert res.snapshot_index == snap
    assert rng.ints == [] and rng.uniform == []
    assert counter.count == n + 2 * steps
    assert np.linalg.norm(res.x_next - ref) <= 1e-10 * scale


def oracle_run_divergence(problem, config):
    """run(evaluate=False) for a fixed-step, fixed-length config, stepping
    through grad_component with one scalar draw per step; returns the steps
    count DivergenceError should carry, or None."""
    rng = np.random.default_rng(config.seed)
    eta, m = config.step.eta, config.inner.m
    x = np.zeros(problem.d)
    for s in range(1, config.outer_loops + 1):
        g = problem.full_grad(x)
        if not finite(g):
            return s
        snap = sample_snapshot_index(
            weights(config.averaging, m, problem.mu, eta), rng)
        if config.algorithm == "svrg":
            picks = [int(rng.integers(problem.n)) for _ in range(snap)]
            x, bad = oracle_svrg(problem, x, g, eta, picks)
        else:
            picks = [int(rng.integers(problem.n))
                     for _ in range(max(snap - 1, 0))]
            x, bad = oracle_sarah(problem, x, g, eta, snap, picks)
        if bad is not None:
            return bad
    return None


@pytest.mark.parametrize("algorithm,eta_over_l", [
    ("svrg", 50.0), ("sarah", 50.0), ("sarah", 8.0)])
def test_divergence_steps_match_grad_component_loop(algorithm, eta_over_l):
    problem = make_logistic(20, 4, seed=27, kappa=2.0)
    config = SolverConfig(algorithm,
                          step=FixedStep(eta_over_l / problem.smoothness),
                          inner=FixedLength(50), averaging=U,
                          outer_loops=40, seed=1)
    expected = oracle_run_divergence(problem, config)
    assert expected is not None
    with pytest.raises(DivergenceError) as info:
        run(problem, config, evaluate=False)
    assert info.value.steps == expected


def test_divergence_raises_no_numpy_warning():
    problem = make_logistic(20, 4, seed=27, kappa=2.0)  # mu = 0.25: unstable
    config = SolverConfig("svrg", step=FixedStep(50.0 / problem.smoothness),
                          inner=FixedLength(50), averaging=U,
                          ifo_budget=10 ** 6, seed=1, name="boom")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="boom"):
            run(problem, config)
