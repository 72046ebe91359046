import itertools
import math
import numbers
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from conftest import (RidgeProblem, ScriptedRng, inner_loop, make_logistic,
                      make_ridge, ridge_minimizer)
from vropt import (AdaptiveLength, AveragingScheme, BarzilaiBorweinStep,
                   ConfigError, DivergenceError, FixedLength, FixedStep,
                   IfoCounter, LogisticProblem, RateQuery, SolverConfig,
                   bb_step, bench_configs, cached_reference,
                   compute_reference, format_rate_csv, format_trace_csv,
                   generate_synthetic, load_trace_csv, normalize_rows,
                   run, run_experiment)
import vropt.cli
from vropt.averaging import SCHEMES
from vropt.rates import SCHEME_RATES
from vropt.solvers import ALGORITHMS, check_config

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
        run(problem, SolverConfig("svrg", outer_loops=-1, step=FixedStep(0.1),
                                  inner=FixedLength(4), averaging=U))
    with pytest.raises(ConfigError, match="outer_loops must be an integer"):
        run(problem, SolverConfig("svrg", outer_loops=2.5, step=FixedStep(0.1),
                                  inner=FixedLength(4), averaging=U))
    # the budget takes the rule outer_loops has: count >= nan is always
    # False, so run() would never stop at a NaN budget
    for budget in (float("nan"), math.inf, 2.5):
        with pytest.raises(ConfigError, match=r"^ifo_budget must be an "
                           rf"integer, got {budget!r}$"):
            check_config(problem, SolverConfig("sgd", ifo_budget=budget))
    with pytest.raises(ConfigError, match=r"^ifo_budget must be >= 0, "
                       r"got -1$"):
        check_config(problem, SolverConfig("sgd", ifo_budget=-1))
    # the seed and the config id, for every algorithm
    for algo, rules in (("gd", {}), ("svrg", good)):
        rules = dict(rules, outer_loops=1)
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            run(problem, SolverConfig(algo, seed=-1, **rules))
        with pytest.raises(ConfigError,
                           match=r"^seed must be an integer, got 1\.5$"):
            run(problem, SolverConfig(algo, seed=1.5, **rules))
        with pytest.raises(ConfigError,
                           match=r"^name 'a,b' contains a comma$"):
            run(problem, SolverConfig(algo, name="a,b", **rules))
        for name in ("a\nb", "a\r", "\u2028", "a\x1cb"):
            with pytest.raises(ConfigError, match=r"contains a line break$"):
                run(problem, SolverConfig(algo, name=name, **rules))


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
    for bad in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="positive and finite"):
            FixedStep(bad)
        with pytest.raises(ConfigError, match="positive and finite"):
            AdaptiveLength(bad)
        with pytest.raises(ConfigError, match="positive and finite"):
            BarzilaiBorweinStep(bad)
        with pytest.raises(ConfigError, match="positive and finite"):
            BarzilaiBorweinStep(4.0, eta0=bad)
    with pytest.raises(ConfigError, match="inner length must be an integer"):
        FixedLength(10.0)
    assert FixedLength(np.int64(10)).m == 10


def _trace_csv(algorithm="svrg", step=FixedStep(0.3), inner=FixedLength(10),
               averaging=U, seed=0, f_star=None):
    problem = make_logistic(40, 5, seed=38, kappa=20.0)
    config = SolverConfig(algorithm, step=step, inner=inner,
                          averaging=averaging, outer_loops=4, seed=seed)
    return format_trace_csv([run(problem, config, f_star=f_star)])


def _rate_csv(**fields):
    q = RateQuery(**dict(dict(eta=0.1, m=10, L=4.0, mu=1e-3), **fields))
    return format_rate_csv([(scheme, q.eta, rate(q))
                            for scheme, rate in SCHEME_RATES.items()])


# every number a caller passes to a solver rule, run() or a rate query:
# field -> (the name a refusal gives, "real" or "integer", a value it
# takes, the CSV text of a use of the field with a given value)
_NUMBER_FIELDS = {
    "FixedStep.eta": ("step size", "real", 0.3,
                      lambda v: _trace_csv(step=FixedStep(v))),
    "BarzilaiBorweinStep.theta_kappa": (
        "theta_kappa", "real", 20.0,
        lambda v: _trace_csv("sarah", step=BarzilaiBorweinStep(v))),
    "BarzilaiBorweinStep.eta0": (
        "eta0", "real", 0.5,
        lambda v: _trace_csv("sarah", step=BarzilaiBorweinStep(20.0, v))),
    "AdaptiveLength.c": (
        "c", "real", 1.5,
        lambda v: _trace_csv("sarah", step=BarzilaiBorweinStep(20.0),
                             inner=AdaptiveLength(v),
                             averaging=AveragingScheme.WEIGHTED_SARAH)),
    "run.f_star": ("f_star", "real", 0.25, lambda v: _trace_csv(f_star=v)),
    "RateQuery.eta": ("eta", "real", 0.1, lambda v: _rate_csv(eta=v)),
    "RateQuery.L": ("L", "real", 4.0, lambda v: _rate_csv(L=v)),
    "RateQuery.mu": ("mu", "real", 1e-3, lambda v: _rate_csv(mu=v)),
    "FixedLength.m": ("inner length", "integer", 10,
                      lambda v: _trace_csv(inner=FixedLength(v))),
    "SolverConfig.seed": ("seed", "integer", 7,
                          lambda v: _trace_csv(seed=v)),
}


def _number_rows():
    for field, (_, kind, value, _) in _NUMBER_FIELDS.items():
        if kind == "integer":
            yield field, np.int64(value)
            continue
        yield from ((field, given) for given in (
            np.float64(value), np.float32(value), Fraction(str(value)), 1,
            True, Decimal("0.1"), "0.1", 1j))
        # eta0=None and f_star=None mean "not given"; elsewhere None is bad
        if field not in ("BarzilaiBorweinStep.eta0", "run.f_star"):
            yield field, None


_NUMBER_ROWS = list(_number_rows())


@pytest.mark.parametrize("field,given", _NUMBER_ROWS, ids=[
    f"{field}-{type(given).__name__}" for field, given in _NUMBER_ROWS])
def test_each_number_a_caller_passes_is_held_as_a_python_number(field,
                                                                given):
    # numpy scalars, Fractions and bools were once held as given: a
    # np.float64 step wrote np.float64(...) cells no reader parses, and a
    # np.float32 one ran the lazy recurrences in float32
    name, kind, _, use = _NUMBER_FIELDS[field]
    if not isinstance(given, numbers.Real):
        with pytest.raises(ValueError) as info:
            use(given)
        assert str(info.value) == f"{name} must be a real number, got " \
            f"{given!r}"
        return
    text = use(given)
    assert text == use(float(given) if kind == "real" else int(given))
    if field.startswith("RateQuery"):
        for row in text.splitlines()[1:]:  # x and lambda parse
            for cell in row.split(",")[1:3]:
                assert cell == "" or math.isfinite(float(cell))
    else:
        assert format_trace_csv(load_trace_csv(text)) == text


def test_bb_derived_quantities_must_be_finite():
    problem = make_ridge(6, 3, seed=30, mu=0.1)
    assert problem.smoothness > 2.0  # so 1e308 * L overflows
    w_sarah = AveragingScheme.WEIGHTED_SARAH
    cases = [
        ("sarah", BarzilaiBorweinStep(1e-320), AdaptiveLength(), w_sarah,
         r"eta0 = 1/\(theta_kappa\*mu\) must be positive and finite, "
         r"got inf$"),
        ("svrg", BarzilaiBorweinStep(1e-320), FixedLength(10), U,
         r"eta0 = 1/\(theta_kappa\*L\) must be positive and finite, "
         r"got inf$"),
        ("svrg", BarzilaiBorweinStep(1e308), FixedLength(10), U,
         r"eta0 = 1/\(theta_kappa\*L\) must be positive and finite, "
         r"got 0\.0$"),
        # c/(mu*eta0) overflows; and mu*eta0 underflows to 0
        ("sarah", BarzilaiBorweinStep(1.0, eta0=1e-320), AdaptiveLength(),
         w_sarah, r"adaptive inner length c/\(mu\*eta_s\) = inf is not "
                  r"finite$"),
        ("svrg", BarzilaiBorweinStep(1.0, eta0=5e-324), AdaptiveLength(), U,
         r"adaptive inner length c/\(mu\*eta_s\) = inf is not finite$"),
        # finite, but no array holds a snapshot pmf of m_0 + 1 floats
        ("sarah", BarzilaiBorweinStep(1e300), AdaptiveLength(), w_sarah,
         r"adaptive inner length c/\(mu\*eta_s\) = 9\.999999999999999e\+299 "
         r"is too large: the snapshot pmf holds m_s \+ 1 floats, at most "
         r"1152921504606846975$"),
    ]
    for algorithm, step, inner, averaging, message in cases:
        config = SolverConfig(algorithm, step=step, inner=inner,
                              averaging=averaging, outer_loops=3)
        with pytest.raises(ConfigError, match=message):
            run(problem, config)
        with pytest.raises(ConfigError, match=message):
            check_config(problem, config)


def test_fixed_inner_length_past_any_pmf_is_rejected():
    # m_s + 1 floats of 8 bytes must fit np.intp's largest byte count
    problem = make_ridge(6, 3, seed=30, mu=0.1)
    largest = np.iinfo(np.intp).max // 8 - 1
    for algorithm, step in (("svrg", FixedStep(0.1)),
                            ("sarah", BarzilaiBorweinStep(1.0))):
        check_config(problem, SolverConfig(
            algorithm, step=step, inner=FixedLength(largest), averaging=U,
            outer_loops=3))
        config = SolverConfig(algorithm, step=step,
                              inner=FixedLength(largest + 1), averaging=U,
                              outer_loops=3)
        message = (rf"^inner length {largest + 1} is too large: the snapshot "
                   r"pmf holds m_s \+ 1 floats, at most "
                   rf"{largest + 1}$")
        with pytest.raises(ConfigError, match=message):
            check_config(problem, config)
        with pytest.raises(ConfigError, match=message):
            run(problem, config)


def test_check_config_returns_the_first_step():
    problem = make_ridge(6, 3, seed=30, mu=0.1)
    big_l, mu, _ = problem.constants()
    w_svrg = AveragingScheme.WEIGHTED_SVRG
    configs = [
        SolverConfig("svrg", step=FixedStep(0.2), inner=FixedLength(5),
                     averaging=w_svrg, outer_loops=3),
        SolverConfig("sarah", step=BarzilaiBorweinStep(3.0),
                     inner=AdaptiveLength(), averaging=U, outer_loops=3),
        SolverConfig("svrg", step=BarzilaiBorweinStep(3.0, eta0=0.05),
                     inner=FixedLength(5), averaging=U, outer_loops=3),
    ]
    for config, eta0 in zip(configs, [0.2, 1.0 / (3.0 * mu), 0.05]):
        assert check_config(problem, config) == eta0
        assert run(problem, config).points[1].eta_s == eta0
    for algorithm in ("gd", "sgd"):
        assert check_config(problem, SolverConfig(algorithm,
                                                  outer_loops=1)) is None
    # a weighted scheme needs 0 < mu*eta0 < 1, checked before any loop runs
    config = replace(configs[0], step=FixedStep(20.0 / mu), outer_loops=0)
    for check in (check_config, run):
        with pytest.raises(ValueError, match=r"^weighted schemes need "
                                             r"0 < mu\*eta < 1, got "
                                             r"mu\*eta = 20\.0$"):
            check(problem, config)


# each estimator's pairs as (--avg letter, scheme, theta / kappa, rate key),
# in the order u, w, l: the least admissible secant scalings are 4 kappa for
# every svrg pair, and kappa, kappa, 1.5 kappa for sarah's
PAIRS = {
    "svrg": [("u", U, 4.0, "svrg_u"),
             ("w", AveragingScheme.WEIGHTED_SVRG, 4.0, "svrg_w"),
             ("l", AveragingScheme.LAST_SVRG, 4.0, None)],
    "sarah": [("u", U, 1.0, "sarah_u"),
              ("w", AveragingScheme.WEIGHTED_SARAH, 1.0, "sarah_w"),
              ("l", AveragingScheme.LAST_SARAH, 1.5, "sarah_l")],
}


def test_scheme_table():
    problem = make_logistic(10, 4, seed=0, kappa=20.0)
    kappa = problem.kappa
    parser = vropt.cli._build_parser("run")
    rate_keys = []
    for algo, pairs in PAIRS.items():
        assert [(letter, *entry) for letter, entry in SCHEMES[algo].items()] \
            == pairs
        for letter, scheme, theta_over_kappa, rate_key in pairs:
            config = SolverConfig(algo, step=FixedStep(0.1),
                                  inner=FixedLength(4), averaging=scheme,
                                  outer_loops=1)
            assert run(problem, config).final.s == 1
            # --avg picks the scheme, and --step bb its default scaling
            args = parser.parse_args([
                "--data", "unread", "--mu", "1", "--algo", algo,
                "--step", "bb", "--avg", letter])
            built = vropt.cli._build_run_config(args, problem)
            assert built.averaging is scheme
            assert built.step.theta_kappa == theta_over_kappa * kappa
            rate_keys.append(rate_key)
        own = [scheme for _, scheme, _, _ in pairs]
        other = [scheme for a in PAIRS if a != algo
                 for _, scheme, _, _ in PAIRS[a] if scheme not in own]
        assert len(other) == 2
        for scheme in other:
            with pytest.raises(ConfigError, match=r"^averaging \w+ is not "
                               f"valid for {algo}; choose one of "):
                run(problem, replace(config, averaging=scheme))
    # every pair with a bound names a rate calculator, and each calculator
    # belongs to exactly one pair
    assert sorted(k for k in rate_keys if k is not None) == \
        sorted(SCHEME_RATES)


def test_algorithms_are_the_builtin_rules_then_the_estimators():
    assert ALGORITHMS == ("gd", "sgd", *SCHEMES) == ("gd", "sgd", "svrg",
                                                     "sarah")
    # the CLI offers exactly these, and run() refuses any other name
    run_parser = vropt.cli._build_parser("run")
    algo, = [a for a in run_parser._actions if a.dest == "algo"]
    assert tuple(algo.choices) == ALGORITHMS
    problem = make_logistic(10, 4, seed=0, kappa=20.0)
    with pytest.raises(ConfigError, match=r"^unknown algorithm 'saga'$"):
        run(problem, SolverConfig("saga", outer_loops=1))


# ---------------------------------------------------------------- bb_step

def constant_curvature_pairs(h, x_a, x_b):
    """(x, grad) of two snapshots of the quadratic (h/2)||x||^2."""
    x_a, x_b = np.asarray(x_a, dtype=float), np.asarray(x_b, dtype=float)
    return (x_a, h * x_a), (x_b, h * x_b)


def test_bb_step_constant_curvature():
    pairs = constant_curvature_pairs(1.0, [0.0, 0.0], [1.0, 2.0])
    assert bb_step(*pairs, 4.0, constants=(1.0, 1.0)) == \
        pytest.approx(0.25, rel=1e-15)
    pairs = constant_curvature_pairs(3.0, [1.0], [-2.0])
    assert bb_step(*pairs, 2.0, constants=(3.0, 3.0)) == \
        pytest.approx(1.0 / 6.0, rel=1e-15)
    # the identity-Hessian value sits exactly on the interval for L = mu = 1
    pairs = constant_curvature_pairs(1.0, [0.0], [5.0])
    assert bb_step(*pairs, 4.0, constants=(1.0, 1.0)) == pytest.approx(0.25)


def test_bb_step_zero_displacement_returns_none():
    pairs = constant_curvature_pairs(2.0, [1.0, 1.0], [1.0, 1.0])
    assert bb_step(*pairs, 4.0, constants=(2.0, 2.0)) is None


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
                (np.array([1.0]), np.array([0.5])), 4.0,
                constants=(1.0, 0.5))


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
    x_next, _, snap = inner_loop(problem, "svrg", x0, eta, m, rng, counter)
    assert snap == M
    x = x0.copy()
    for _ in range(M):
        x = x - eta * problem.full_grad(x)
    assert np.allclose(x_next, x, atol=1e-12)


def test_sarah_inner_equals_gd_when_components_identical():
    problem = identical_component_problem()
    eta, m, M = 0.05, 6, 4
    counter = IfoCounter()
    x0 = np.array([1.0, -0.5, 2.0])
    rng = ScriptedRng(uniform=[0.70], ints=[1, 4, 2])
    x_next, _, snap = inner_loop(problem, "sarah", x0, eta, m, rng, counter)
    assert snap == M
    x = x0.copy()
    for _ in range(M):
        x = x - eta * problem.full_grad(x)
    assert np.allclose(x_next, x, atol=1e-12)


def test_inner_rng_order_snapshot_draw_first(monkeypatch):
    problem = identical_component_problem()

    def one_loop(algorithm, rng):
        monkeypatch.setattr(np.random, "default_rng", lambda seed: rng)
        config = SolverConfig(algorithm, step=FixedStep(0.01),
                              inner=FixedLength(4), averaging=U,
                              outer_loops=1)
        return run(problem, config, evaluate=False).points[-1].snapshot_index

    # script exactly one uniform then M component picks; leftovers = bug
    rng = ScriptedRng(uniform=[0.3], ints=[0])  # uniform m=4 -> index 1
    assert one_loop("svrg", rng) == 1
    assert rng.uniform == [] and rng.ints == []
    rng = ScriptedRng(uniform=[0.99], ints=[0, 0])  # index 3 -> 2 recursive
    assert one_loop("sarah", rng) == 3
    assert rng.uniform == [] and rng.ints == []


def test_inner_ifo_costs_exact():
    problem = make_logistic(11, 4, seed=4, kappa=15.0)
    x0 = np.zeros(problem.d)
    counter = IfoCounter()
    rng = ScriptedRng(uniform=[0.7], ints=[0, 1, 2])  # M = 3 (uniform m=5 over 0..4: wait)
    _, _, snap = inner_loop(problem, "svrg", x0, 0.05, 5, rng, counter)
    assert snap == 3
    assert counter.count == problem.n + 2 * 3
    counter = IfoCounter()
    rng = ScriptedRng(uniform=[0.7], ints=[0, 1])
    _, _, snap = inner_loop(problem, "sarah", x0, 0.05, 5, rng, counter)
    assert snap == 3
    assert counter.count == problem.n + 2 * (3 - 1)


def test_sarah_inner_snapshot_zero_and_one():
    problem = make_logistic(7, 3, seed=5, kappa=12.0)
    x0 = np.full(problem.d, 0.3)
    counter = IfoCounter()
    x, _, snap = inner_loop(problem, "sarah", x0, 0.1, 4,
                            ScriptedRng(uniform=[0.0]), counter)
    assert snap == 0
    assert np.array_equal(x, x0)
    assert counter.count == problem.n  # only the anchor gradient
    counter = IfoCounter()
    x, g, snap = inner_loop(problem, "sarah", x0, 0.1, 4,
                            ScriptedRng(uniform=[0.3]), counter)
    assert snap == 1
    assert np.allclose(x, x0 - 0.1 * g, atol=0)
    assert counter.count == problem.n  # the deterministic step is free


def test_svrg_inner_snapshot_zero_returns_anchor():
    problem = make_logistic(7, 3, seed=6, kappa=12.0)
    x0 = np.full(problem.d, -0.2)
    counter = IfoCounter()
    x, _, snap = inner_loop(problem, "svrg", x0, 0.1, 4,
                            ScriptedRng(uniform=[0.0]), counter)
    assert snap == 0
    assert np.array_equal(x, x0)
    assert counter.count == problem.n


def test_inner_does_not_mutate_inputs():
    problem = make_logistic(9, 4, seed=7, kappa=18.0)
    x0 = np.linspace(-1, 1, problem.d)
    keep = x0.copy()
    inner_loop(problem, "svrg", x0, 0.05, 4,
               ScriptedRng(uniform=[0.9], ints=[0, 1, 2]), IfoCounter())
    assert np.array_equal(x0, keep)
    inner_loop(problem, "sarah", x0, 0.05, 4,
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
    x, _, _ = inner_loop(problem, "sarah", x0, eta, 3,
                         ScriptedRng(uniform=[0.9], ints=[i1]), IfoCounter())
    xs, _ = paths[i1]
    assert np.allclose(x, xs[2], atol=1e-14)


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
    f_star = problem.value(ridge_minimizer(problem))
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
    # a known f* adds the gap and changes no other column, to the bit
    with_gap = run(problem, config, f_star=cached_reference(problem).f_star)
    assert all(p.gap is not None for p in with_gap.points)
    assert [repr(replace(p, gap=None)) for p in with_gap.points] == \
        [repr(p) for p in full.points]


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


def test_run_starts_at_zero():
    problem = make_logistic(15, 4, seed=22, kappa=20.0)
    trace = run(problem, SolverConfig("gd", outer_loops=1))
    g0 = problem.full_grad(np.zeros(problem.d))
    assert trace.points[0].grad_sq == float(g0 @ g0)


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
    for algorithm in ("svrg", "sarah"):
        config = SolverConfig(algorithm, step=FixedStep(50.0 / big_l),
                              inner=FixedLength(50), averaging=U,
                              ifo_budget=10 ** 6, seed=1, name="boom")
        with pytest.raises(DivergenceError, match="boom") as info:
            run(problem, config)
        assert info.value.config_id == "boom"
        assert info.value.steps > 0
        assert info.value.iterate_norm > 1e100 or not \
            math.isfinite(info.value.iterate_norm)
    # the start's evaluation is checked too, at s = 0
    problem.value_and_grad = lambda x: (math.inf, np.full(problem.d, np.inf))
    with pytest.raises(DivergenceError, match="boom") as info:
        run(problem, config)
    assert (info.value.steps, info.value.iterate_norm) == (0, 0.0)


def test_trace_shape_and_final():
    problem = make_logistic(12, 3, seed=28, kappa=10.0)
    trace = run(problem, SolverConfig("gd", outer_loops=3))
    assert len(trace.points) == 4
    assert trace.final is trace.points[-1]
    assert trace.config_id == "gd" and trace.n == problem.n
    assert trace.sample_passes(trace.final) == pytest.approx(3.0)
