"""The fused inner loop against a plain loop built from grad_component.

run() takes every svrg and sarah inner loop through one kernel that works on
CSR rows and scalar loss derivatives, with its dense terms kept as lazily
scaled scalars. These tests pin it to the textbook updates,
x <- x - eta*(grad f_i(x) - grad f_i(x0) + g) and
v <- v + grad f_i(x_k) - grad f_i(x_{k-1}), x <- x - eta*v,
on the same component picks. The divergence tests pin DivergenceError.steps
of every solver, GD and SGD included, to plain full_grad and grad_component
loops.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (RidgeProblem, ScriptedRng, inner_loop, make_logistic,
                      make_ridge)
from vropt import (AveragingScheme, Dataset, DivergenceError, FixedLength,
                   FixedStep, IfoCounter, LogisticProblem, SolverConfig,
                   normalize_rows, run, solvers)
from vropt.averaging import sample_snapshot_index, weights

U = AveragingScheme.UNIFORM
MAX_M = 12


def wide_rows(n, d, seed):
    """(n, d) dense array with 1 to 3 nonzeros per row, so a short run of
    picks leaves most columns untouched."""
    rng = np.random.default_rng(seed)
    rows = np.zeros((n, d))
    for row in rows:
        cols = rng.choice(d, rng.integers(1, 4), replace=False)
        row[cols] = rng.standard_normal(cols.size)
    return rows


def make_wide_logistic(n, d, seed, kappa):
    """Logistic problem on wide_rows scaled to unit norm, so L = 1/4 + mu
    and mu = 0.25/(kappa - 1) pins L/mu = kappa."""
    rows = wide_rows(n, d, seed)
    nz = rows != 0.0
    counts = nz.sum(axis=1)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    labels = np.where(np.arange(n) % 2 == 0, 1, -1)
    ds = Dataset(indptr, np.nonzero(nz)[1], rows[nz], labels, d)
    return LogisticProblem(normalize_rows(ds), 0.25 / (kappa - 1.0))


PROBLEMS = [
    make_logistic(9, 4, seed=90, kappa=15.0),
    make_logistic(6, 7, seed=91, kappa=400.0),
    make_ridge(8, 3, seed=92, mu=0.4),
    make_ridge(5, 6, seed=93, mu=0.05),
    make_wide_logistic(10, 240, seed=94, kappa=30.0),
    RidgeProblem(wide_rows(9, 300, seed=95),
                 np.random.default_rng(96).standard_normal(9), 0.2),
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
    x, _, got = inner_loop(problem, "svrg", x0, eta, m, rng, counter)
    ref, _ = oracle_svrg(problem, x0, g, eta, picks[:snap])
    assert got == snap
    assert rng.ints == [] and rng.uniform == []
    assert counter.count == n + 2 * snap
    assert np.linalg.norm(x - ref) <= 1e-10 * scale

    counter = IfoCounter()
    steps = max(snap - 1, 0)
    rng = ScriptedRng(uniform=[u], ints=picks[:steps])
    x, _, got = inner_loop(problem, "sarah", x0, eta, m, rng, counter)
    ref, _ = oracle_sarah(problem, x0, g, eta, snap, picks[:steps])
    assert got == snap
    assert rng.ints == [] and rng.uniform == []
    assert counter.count == n + 2 * steps
    assert np.linalg.norm(x - ref) <= 1e-10 * scale


def counted_folds(monkeypatch):
    """Record the scalars (a, b, sigma) of every fold the kernel makes."""
    calls = []
    fold = solvers._fold

    def counting(u, v, a, b, sig):
        calls.append((a, b, sig))
        fold(u, v, a, b, sig)

    monkeypatch.setattr(solvers, "_fold", counting)
    return calls


def kernel_against_oracle(problem, algorithm, x0, eta, picks):
    """Run the kernel over the given picks and the matching oracle; return
    the distance between their iterates relative to max(1, ||x0||)."""
    g = problem.full_grad(x0)
    if algorithm == "svrg":
        upto = len(picks)
        ref, bad = oracle_svrg(problem, x0, g, eta, picks)
    else:
        upto = len(picks) + 1
        ref, bad = oracle_sarah(problem, x0, g, eta, upto, picks)
    assert bad is None
    counter = IfoCounter()
    x = solvers._inner_steps(problem, algorithm, x0, g, eta, upto,
                             ScriptedRng(ints=picks), counter)
    assert counter.count == 2 * len(picks)
    scale = max(1.0, float(np.linalg.norm(x0)))
    return float(np.linalg.norm(x - ref)) / scale


FOLD_PROBLEM = make_wide_logistic(10, 240, seed=97, kappa=1.5)  # mu = 0.5


@pytest.mark.parametrize("algorithm", ["svrg", "sarah"])
@pytest.mark.parametrize("eta", [1.0 / 0.75, 2.0])  # s = 1/3 and s = 0
def test_scale_fold_matches_grad_component_loop(monkeypatch, algorithm, eta):
    # a large step shrinks a (svrg) or sigma (sarah) below _SCALE_LO within
    # a few steps; eta = 1/mu makes it exactly 0 at the first step
    problem = FOLD_PROBLEM
    picks = np.random.default_rng(98).integers(problem.n, size=40).tolist()
    x0 = np.random.default_rng(99).standard_normal(problem.d)
    folds = counted_folds(monkeypatch)
    assert kernel_against_oracle(problem, algorithm, x0, eta, picks) <= 1e-10
    assert any(abs(sig if algorithm == "sarah" else a) < solvers._SCALE_LO
               for a, _, sig in folds)


@pytest.mark.parametrize("algorithm", ["svrg", "sarah"])
@pytest.mark.parametrize("which", [0, 2, 4, 5])
def test_large_finite_iterate_matches_grad_component_loop(algorithm, which):
    # ||x|| ~ 1e101: x.x ~ 1e202 is still finite, so the loop runs to its
    # end and the lazy form keeps the oracle's iterate at this scale
    problem = PROBLEMS[which]
    picks = np.random.default_rng(which).integers(problem.n,
                                                  size=10).tolist()
    x0 = 1e101 * np.random.default_rng(100).standard_normal(problem.d)
    eta = 0.5 / problem.smoothness
    assert kernel_against_oracle(problem, algorithm, x0, eta, picks) <= 1e-10


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


@pytest.mark.parametrize("kind,algorithm,eta_over_l", [
    pytest.param("logistic", "svrg", 50.0, id="svrg-50.0"),
    pytest.param("logistic", "sarah", 50.0, id="sarah-50.0"),
    pytest.param("logistic", "sarah", 8.0, id="sarah-8.0"),
    # ridge's loss derivative is unbounded, so the iterate grows for tens
    # of steps before x.x overflows
    pytest.param("ridge", "svrg", 8.0, id="ridge-svrg-8.0"),
    pytest.param("ridge", "sarah", 8.0, id="ridge-sarah-8.0"),
    # x_1 = x0 - eta*g, sarah's deterministic first step, overflows
    pytest.param("logistic", "sarah", 1e300, id="sarah-first-step"),
])
def test_divergence_steps_match_grad_component_loop(kind, algorithm,
                                                    eta_over_l):
    if kind == "logistic":
        problem = make_logistic(20, 4, seed=27, kappa=2.0)
    else:
        problem = make_ridge(20, 4, seed=28, mu=0.05)
    config = SolverConfig(algorithm,
                          step=FixedStep(eta_over_l / problem.smoothness),
                          inner=FixedLength(50), averaging=U,
                          outer_loops=40, seed=1)
    expected = oracle_run_divergence(problem, config)
    assert expected is not None
    with pytest.raises(DivergenceError) as info:
        run(problem, config, evaluate=False)
    assert info.value.steps == expected


@pytest.mark.parametrize("loop", [1, 3])
@pytest.mark.parametrize("algorithm", ["svrg", "sarah"])
def test_divergence_in_snapshot_gradient(algorithm, loop):
    # a snapshot gradient with an inf entry: loop `loop` stops at it,
    # before any of its inner steps, and is named as an outer loop
    problem = make_logistic(20, 4, seed=27, kappa=2.0)
    full_grad = problem.full_grad
    calls = []

    def overflowing(x, counter=None):
        g = full_grad(x, counter)
        calls.append(None)
        if len(calls) == loop:
            g[0] = np.inf
        return g

    problem.full_grad = overflowing
    config = SolverConfig(algorithm, step=FixedStep(0.1),
                          inner=FixedLength(50), averaging=U, outer_loops=5)
    with pytest.raises(DivergenceError) as info:
        run(problem, config, evaluate=False)
    assert info.value.steps == loop
    assert info.value.iterate_norm == math.inf
    assert str(info.value) == (f"divergence in config {algorithm!r}: snapshot "
                               f"gradient at outer loop {loop} is not finite")


@pytest.mark.parametrize("algorithm", ["gd", "sgd", "svrg", "sarah"])
def test_divergence_in_evaluation(algorithm):
    # the evaluation after outer loop 3 (the 4th, counting the start's)
    # returns an inf gradient; it is named with the loop, not as steps
    problem = make_logistic(20, 4, seed=27, kappa=2.0)
    value_and_grad = problem.value_and_grad
    calls = []

    def overflowing(x):
        value, g = value_and_grad(x)
        calls.append((float(np.linalg.norm(x)), value))
        if len(calls) == 4:
            g = np.full_like(g, np.inf)
        return value, g

    problem.value_and_grad = overflowing
    rules = {} if algorithm in ("gd", "sgd") else dict(
        step=FixedStep(0.1), inner=FixedLength(50), averaging=U)
    config = SolverConfig(algorithm, outer_loops=5, **rules)
    with pytest.raises(DivergenceError) as info:
        run(problem, config)
    norm, value = calls[-1]
    assert len(calls) == 4 and math.isfinite(value)
    assert (info.value.steps, info.value.iterate_norm) == (3, norm)
    assert str(info.value) == (
        f"divergence in config {algorithm!r}: evaluation at outer loop 3 is "
        f"not finite: f = {value}, grad_sq = inf")


class LooseRidge(RidgeProblem):
    """Ridge that reports L divided by `shrink`: the built-in steps of GD
    (1/L) and SGD (0.05/(L*epoch)) overshoot, and the iterate grows until
    x.x overflows."""

    def __init__(self, shrink, n=20, d=3, seed=29, mu=0.05):
        rng = np.random.default_rng(seed)
        super().__init__(rng.standard_normal((n, d)),
                         rng.standard_normal(n), mu)
        self.shrink = shrink

    @property
    def smoothness(self):
        return super().smoothness / self.shrink


def test_gd_divergence_steps_match_full_grad_loop():
    problem = LooseRidge(100.0)
    x = np.zeros(problem.d)
    for expected in range(1, 1000):
        x = x - problem.full_grad(x) / problem.smoothness
        if not finite(x):
            break
    else:
        pytest.fail("the plain loop stayed finite")
    with pytest.raises(DivergenceError) as info:
        run(problem, SolverConfig("gd", outer_loops=expected + 5),
            evaluate=False)
    assert info.value.steps == expected


def oracle_sgd_divergence(problem, seed, epochs):
    """(epoch, step within it, iterate norm) at SGD's first non-finite
    iterate, stepping through grad_component with one scalar draw per step;
    None when every iterate stays finite."""
    rng = np.random.default_rng(seed)
    x = np.zeros(problem.d)
    for epoch in range(1, epochs + 1):
        eta = 0.05 / (problem.smoothness * epoch)
        for k in range(1, problem.n + 1):
            with np.errstate(over="ignore", invalid="ignore"):
                x = x - eta * problem.grad_component(
                    int(rng.integers(problem.n)), x)
            if not finite(x):
                with np.errstate(over="ignore", invalid="ignore"):
                    return epoch, k, float(np.linalg.norm(x))
    return None


@pytest.mark.parametrize("shrink,epoch", [
    (1e12, 1), (1e7, 2),
    # three finite epochs first: the replay of the fourth must restart from
    # that epoch's own generator state to stop at the same step
    (1e5, 4),
])
def test_sgd_divergence_steps_match_grad_component_loop(shrink, epoch):
    # DivergenceError.steps counts SGD's steps from the start of the epoch,
    # as it counts the kernel's from the start of the inner loop
    problem = LooseRidge(shrink)
    expected = oracle_sgd_divergence(problem, seed=3, epochs=5)
    assert expected is not None and expected[0] == epoch
    assert 1 < expected[1] < problem.n
    with pytest.raises(DivergenceError) as info:
        run(problem, SolverConfig("sgd", outer_loops=5, seed=3),
            evaluate=False)
    assert info.value.steps == expected[1]
    norm = info.value.iterate_norm
    assert norm == expected[2] or (math.isnan(norm) and math.isnan(expected[2]))


def replay_configs(algorithm, eta_over_l):
    """(problem, config) of the divergence tests above: a small step stays
    finite, a large one (sgd: a reported L 1e5 below the true one)
    diverges."""
    if algorithm == "sgd":
        problem = LooseRidge(1e5 if eta_over_l > 1.0 else 1.0)
        return problem, SolverConfig("sgd", outer_loops=5, seed=3)
    problem = make_logistic(20, 4, seed=27, kappa=2.0)
    return problem, SolverConfig(
        algorithm, step=FixedStep(eta_over_l / problem.smoothness),
        inner=FixedLength(50), averaging=U, outer_loops=5, seed=1)


def recorded_loops(monkeypatch, algorithm, first_pass=None):
    """Record (generator state, checked) at each call of the loop run()
    takes for algorithm; first_pass, when given, replaces the loop's
    unchecked calls."""
    name = "_sgd_epoch" if algorithm == "sgd" else "_inner_steps"
    loop = getattr(solvers, name)
    calls = []

    def recording(*args, checked=False):
        rng = next(a for a in args if isinstance(a, np.random.Generator))
        calls.append((rng.bit_generator.state, checked))
        if first_pass is not None and not checked:
            return first_pass(loop(*args))
        return loop(*args, checked=checked)

    monkeypatch.setattr(solvers, name, recording)
    return calls


@pytest.mark.parametrize("algorithm", ["sgd", "svrg", "sarah"])
def test_only_a_failing_loop_is_replayed(monkeypatch, algorithm):
    problem, config = replay_configs(algorithm, 0.1)
    calls = recorded_loops(monkeypatch, algorithm)
    run(problem, config, evaluate=False)
    assert [checked for _, checked in calls] == [False] * 5

    problem, config = replay_configs(algorithm, 50.0)
    calls = recorded_loops(monkeypatch, algorithm)
    with pytest.raises(DivergenceError):
        run(problem, config, evaluate=False)
    # one replay, checked, from the state its failing loop started at
    assert [checked for _, checked in calls] == \
        [False] * (len(calls) - 1) + [True]
    assert calls[-1][0] == calls[-2][0]


@pytest.mark.parametrize("algorithm", ["sgd", "svrg", "sarah"])
def test_a_replay_that_stays_finite_is_a_bug(monkeypatch, algorithm):
    # a first pass that ends non-finite while its replay does not cannot
    # fall through to the evaluation's check, which names the outer loop
    problem, config = replay_configs(algorithm, 0.1)
    recorded_loops(monkeypatch, algorithm,
                   first_pass=lambda x: np.full_like(x, np.inf))
    with pytest.raises(AssertionError, match="stayed finite when replayed"):
        run(problem, config)


def test_divergence_raises_no_numpy_warning():
    problem = make_logistic(20, 4, seed=27, kappa=2.0)  # mu = 0.25: unstable
    for algorithm in ("svrg", "sarah"):
        config = SolverConfig(algorithm,
                              step=FixedStep(50.0 / problem.smoothness),
                              inner=FixedLength(50), averaging=U,
                              ifo_budget=10 ** 6, seed=1, name="boom")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="boom"):
                run(problem, config)
