"""The one number rule (vropt.rules) at every public entry point that reads
a caller's number: a real number is held as its Python float, an integer
as its Python int, and anything else is refused with a ConfigError that
names the parameter."""
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from vropt import (AveragingScheme, ConfigError, Dataset, LogisticProblem,
                   SolverConfig, bench_configs, format_trace_csv,
                   generate_synthetic, normalize_rows, problem_key,
                   rate_grid, run_experiment, serialize_libsvm, weights)
from vropt.harness import check_experiment

_DATA = normalize_rows(generate_synthetic(30, 4, 1, 3.0))
_PROBLEM = LogisticProblem(_DATA, 0.05)
_SGD = [SolverConfig("sgd")]
_W_SVRG = AveragingScheme.WEIGHTED_SVRG


def _logistic(mu):
    problem = LogisticProblem(_DATA, mu)
    return repr((problem.mu, problem.smoothness, problem_key(problem)))


def _dataset(dim):
    ds = Dataset([0, 1, 2], [0, 1], [1.0, 2.0], [1, -1], dim=dim)
    return repr(ds.dim) + serialize_libsvm(ds)


def _synthetic(n=6, d=3, seed=2, separation=2.0):
    ds = generate_synthetic(n, d, seed, separation)
    return repr(ds.dim) + serialize_libsvm(ds)


# parameter: (the name its refusal gives, "real" or "integer", a valid
# value, a valid whole value, and a call that turns a given value into
# text: a repr, which tells a numpy scalar from a Python number, or bytes)
_PARAMETERS = {
    "ErmProblem.mu": ("mu", "real", 0.05, 1, _logistic),
    "Dataset.dim": ("dim", "integer", 5, 5, _dataset),
    "generate_synthetic.n": ("n", "integer", 6, 6,
                             lambda v: _synthetic(n=v)),
    "generate_synthetic.d": ("d", "integer", 3, 3,
                             lambda v: _synthetic(d=v)),
    "generate_synthetic.seed": ("seed", "integer", 2, 2,
                                lambda v: _synthetic(seed=v)),
    "generate_synthetic.separation": ("separation", "real", 2.5, 2,
                                      lambda v: _synthetic(separation=v)),
    "weights.m": ("inner length m", "integer", 5, 5,
                  lambda v: weights(_W_SVRG, v, 0.1, 0.5).tobytes()),
    "weights.mu": ("mu", "real", 0.1, 1,
                   lambda v: weights(_W_SVRG, 5, v, 0.5).tobytes()),
    "weights.eta": ("eta", "real", 0.5, 1,
                    lambda v: weights(_W_SVRG, 5, 0.1, v).tobytes()),
    "rate_grid.points-eta": ("eta", "real", 0.1, 1, lambda v: repr(
        rate_grid(["svrg_u", "sarah_u"], 1.0, 1e-3, "eta", [v], m=10))),
    "rate_grid.points-m": ("m", "real", 10.0, 10, lambda v: repr(
        rate_grid(["svrg_u", "sarah_u"], 1.0, 1e-3, "m", [v], eta=0.1))),
    "check_experiment.passes": ("passes", "real", 1.5, 2, lambda v: repr(
        check_experiment(_PROBLEM, _SGD, v))),
    "run_experiment.passes": ("passes", "real", 1.5, 2,
                              lambda v: format_trace_csv(
                                  run_experiment(_PROBLEM, _SGD, v))),
    "bench_configs.seed": ("seed", "integer", 3, 3,
                           lambda v: repr(bench_configs(_PROBLEM, v))),
}

# None means "not given" where it is the default
_NONE_IS_DEFAULT = {"weights.mu", "weights.eta"}


def _rows():
    for field, (_, kind, value, whole, _) in _PARAMETERS.items():
        held = [np.int64(whole), True]
        refused = [Decimal("0.1"), "0.1", 0.1j]
        if kind == "real":
            held += [np.float64(value), np.float32(value),
                     Fraction(str(value))]
            refused.append(10 ** 400)
        else:  # a real number that is no integer is refused too
            refused += [value + 0.5, np.float64(value), Fraction(value)]
        if field not in _NONE_IS_DEFAULT:
            refused.append(None)
        yield from ((field, given, True) for given in held)
        yield from ((field, given, False) for given in refused)


_ROWS = list(_rows())


def _outcome(use, given):
    """use(given), or the refusal it raises, as text."""
    try:
        return use(given)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("field,given,held", _ROWS, ids=[
    f"{field}-{type(given).__name__}" for field, given, _ in _ROWS])
def test_each_parameter_reads_its_number_through_the_rule(field, given,
                                                          held):
    name, kind, _, _, use = _PARAMETERS[field]
    if held:
        # the same text as for the Python number: bytes, reprs and any
        # refusal (a True inner length is 1, which is too short)
        python = float(given) if kind == "real" else int(given)
        assert _outcome(use, given) == _outcome(use, python)
        return
    with pytest.raises(ConfigError) as info:
        use(given)
    if kind == "integer":
        want = f"{name} must be an integer, got {given!r}"
    elif isinstance(given, int):
        want = (f"{name} must be at most the largest float in magnitude, "
                "got an integer of 1329 bits")
    else:
        want = f"{name} must be a real number, got {given!r}"
    assert str(info.value) == want
