import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (RidgeProblem, component_value, make_logistic, make_ridge,
                      ridge_minimizer)
from vropt import IfoCounter, LogisticProblem, add_bias_column, parse_libsvm


def central_diff(fn, x, h=1e-6):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


@pytest.mark.parametrize("maker", [
    lambda: make_logistic(12, 5, seed=1, kappa=30.0),
    lambda: make_ridge(6, 4, seed=2, mu=0.2),
])
def test_component_gradients_match_finite_differences(maker):
    problem = maker()
    rng = np.random.default_rng(42)
    for _ in range(8):
        i = int(rng.integers(problem.n))
        x = rng.standard_normal(problem.d)
        g = problem.grad_component(i, x)
        fd = central_diff(lambda z: component_value(problem, i, z), x)
        assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))


BOTH_KINDS = (lambda: make_logistic(15, 6, seed=3, kappa=40.0),
              lambda: make_ridge(5, 3, seed=4, mu=0.1))


def test_full_gradient_is_mean_of_components():
    for maker in BOTH_KINDS:
        problem = maker()
        rng = np.random.default_rng(0)
        x = rng.standard_normal(problem.d)
        mean_g = np.mean([problem.grad_component(i, x)
                          for i in range(problem.n)], axis=0)
        assert np.allclose(problem.full_grad(x), mean_g, atol=1e-12)


def test_value_is_mean_of_component_values():
    for maker in BOTH_KINDS:
        problem = maker()
        x = np.random.default_rng(1).standard_normal(problem.d)
        mean_v = np.mean([component_value(problem, i, x)
                          for i in range(problem.n)])
        assert problem.value(x) == pytest.approx(mean_v, rel=1e-12)


def test_ridge_oracles_match_dense_formulas():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((7, 4))
    a[a < -0.5] = 0.0  # some stored zeros are dropped from the CSR rows
    y, mu = rng.standard_normal(7), 0.3
    problem = RidgeProblem(a, y, mu)
    for _ in range(4):
        x = rng.standard_normal(4)
        r = a @ x - y
        assert problem.value(x) == pytest.approx(
            0.5 * r @ r / 7 + 0.5 * mu * x @ x, rel=1e-12)
        assert np.allclose(problem.full_grad(x), a.T @ r / 7 + mu * x,
                           rtol=1e-12, atol=0)
        for i in range(7):
            assert np.allclose(problem.grad_component(i, x),
                               r[i] * a[i] + mu * x, rtol=1e-12, atol=0)
            assert component_value(problem, i, x) == pytest.approx(
                0.5 * r[i] ** 2 + 0.5 * mu * x @ x, rel=1e-12)


def test_ifo_accounting():
    problem = make_logistic(9, 4, seed=5, kappa=20.0)
    counter = IfoCounter()
    x = np.zeros(problem.d)
    problem.grad_component(3, x, counter)
    assert counter.count == 1
    problem.full_grad(x, counter)
    assert counter.count == 1 + problem.n
    problem.value(x)  # evaluation never charges
    assert counter.count == 1 + problem.n


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(range(len(BOTH_KINDS))), data=st.data())
def test_value_and_grad_is_value_and_full_grad_bit_for_bit(kind, data):
    problem = BOTH_KINDS[kind]()
    x = np.array(data.draw(st.lists(st.floats(-1e100, 1e100),
                                    min_size=problem.d, max_size=problem.d)))
    with np.errstate(over="ignore", invalid="ignore"):
        f, g = problem.value_and_grad(x)
        f_alone, g_alone = problem.value(x), problem.full_grad(x)
    assert type(f) is float
    assert np.float64(f).tobytes() == np.float64(f_alone).tobytes()
    assert g.tobytes() == g_alone.tobytes()
    # an evaluation oracle: it takes no counter, so none is ever charged
    counter = IfoCounter()
    counter.count = 5
    with pytest.raises(TypeError):
        problem.value_and_grad(x, counter)
    assert counter.count == 5


def test_logistic_constants():
    ds = parse_libsvm("+1 1:3.0 2:4.0\n-1 1:1.0\n")
    problem = LogisticProblem(ds, 0.5)
    assert problem.smoothness == pytest.approx(25.0 / 4.0 + 0.5)
    L, mu, kappa = problem.constants()
    assert (L, mu) == (problem.smoothness, 0.5)
    assert kappa == pytest.approx(L / mu)


def test_logistic_stable_at_extreme_margins():
    ds = parse_libsvm("+1 1:1.0\n-1 1:1.0\n")
    problem = LogisticProblem(ds, 0.001)
    for sign in (-1.0, 1.0):
        x = np.array([sign * 1000.0])
        assert np.isfinite(problem.value(x))
        assert np.all(np.isfinite(problem.full_grad(x)))
        assert np.all(np.isfinite(problem.grad_component(0, x)))


def test_logistic_add_bias_shifts_dimension():
    ds = parse_libsvm("+1 1:1.0\n-1 1:2.0\n")
    problem = LogisticProblem(add_bias_column(ds), 0.1)
    assert problem.d == 2
    g = problem.full_grad(np.zeros(2))
    assert g.shape == (2,)


def test_ridge_constants_and_normal_equations():
    rows = np.array([[3.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    problem = RidgeProblem(rows, np.array([1.0, -1.0, 0.5]), 0.4)
    assert problem.smoothness == pytest.approx(9.0 + 0.4)
    x_star = ridge_minimizer(problem)
    assert np.linalg.norm(problem.full_grad(x_star)) <= 1e-10


def test_ridge_mu_zero_allowed():
    problem = make_ridge(6, 2, seed=7, mu=0.0)
    assert problem.kappa == np.inf
    x_star = ridge_minimizer(problem)
    assert np.linalg.norm(problem.full_grad(x_star)) <= 1e-10


def test_shape_and_index_validation():
    problem = make_logistic(8, 4, seed=8, kappa=25.0)
    with pytest.raises(ValueError):
        problem.value(np.zeros(3))
    # a gather would read the first d entries of a longer x
    for oracle in (problem.margins, problem.value, problem.full_grad,
                   problem.value_and_grad):
        with pytest.raises(ValueError, match="shape"):
            oracle(np.zeros(5))
    with pytest.raises(IndexError):
        problem.grad_component(8, np.zeros(4))
    with pytest.raises(IndexError):
        problem.grad_component(-1, np.zeros(4))
    with pytest.raises(ValueError):
        LogisticProblem(parse_libsvm("+1 1:1.0\n"), -0.1)
    # "mu < 0" is False for NaN: the message must name mu, not L
    for mu in (math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^mu must be finite and >= 0, "
                           rf"got {mu}$"):
            LogisticProblem(parse_libsvm("+1 1:1.0\n"), mu)


def test_logistic_reads_the_dataset_arrays_in_place():
    problem = make_logistic(15, 4, seed=60, kappa=10.0)
    ds = problem.dataset
    assert np.shares_memory(problem.data, ds.data)
    assert np.shares_memory(problem.indices, ds.indices)
    assert problem._rows is ds.rows  # the row of each entry, built once
    assert problem.indptr == ds.indptr.tolist()
