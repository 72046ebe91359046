import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from vropt import (FIGURE_IDS, GridRow, RateQuery, figure_grid, rate_grid,
                   rate_sarah_last, rate_sarah_uniform, rate_sarah_weighted,
                   rate_svrg_uniform, rate_svrg_weighted,
                   svrg_weighted_within_guarantee)
from vropt.rates import SCHEME_RATES

mp.dps = 50


def mp_svrg_w(eta, m, L, mu):
    eta, L, mu = mpf(eta), mpf(L), mpf(mu)
    d = mu * eta
    den = 1 - 2 * eta * L
    pre = 1 / (1 - (1 - d) ** (m - 1))
    return pre * ((1 - d) ** m / den
                  + 2 * mu * L * eta ** 2 * (1 - d) ** (m - 1) / den
                  + 2 * eta * L / den)


def mp_svrg_u(eta, m, L, mu):
    eta, L, mu = mpf(eta), mpf(L), mpf(mu)
    return 1 / (mu * eta * (1 - 2 * eta * L) * m) \
        + 2 * eta * L / (1 - 2 * eta * L)


def mp_sarah_w(eta, m, L, mu):
    eta, L, mu = mpf(eta), mpf(L), mpf(mu)
    d = mu * eta
    c = m - 1 / d + (1 - d) ** m / d
    kappa = L / mu
    r = 2 * eta * L / (1 + kappa)
    t1 = ((1 - d) ** m - (1 - r) ** m) * (L + mu) / (c * (L - mu))
    t2 = (1 - d) ** m / (c * d)
    t3 = eta * L * (m - 1) / (c * (2 - eta * L))
    t4 = (2 - 2 * eta * L) / (2 - eta * L) * (1 + kappa) / (2 * c * eta * L)
    return t1 + t2 + t3 + t4


def mp_sarah_u(eta, m, L, mu):
    eta, L, mu = mpf(eta), mpf(L), mpf(mu)
    return 1 / (mu * eta * m) + eta * L / (2 - eta * L)


def mp_sarah_l(eta, m, L, mu):
    eta, L, mu = mpf(eta), mpf(L), mpf(mu)
    r = 2 * eta * L / (1 + L / mu)
    return 2 * eta * L / (2 - eta * L) + 2 * (1 + eta * L) * (1 - r) ** m


ORACLES = {"svrg_w": mp_svrg_w, "svrg_u": mp_svrg_u, "sarah_w": mp_sarah_w,
           "sarah_u": mp_sarah_u, "sarah_l": mp_sarah_l}
FNS = {"svrg_w": rate_svrg_weighted, "svrg_u": rate_svrg_uniform,
       "sarah_w": rate_sarah_weighted, "sarah_u": rate_sarah_uniform,
       "sarah_l": rate_sarah_last}


def assert_matches_oracle(scheme, eta, m, L, mu, rel=1e-10):
    got = FNS[scheme](RateQuery(eta=eta, m=m, L=L, mu=mu))
    want = float(ORACLES[scheme](eta, m, L, mu))
    assert got == pytest.approx(want, rel=rel), (scheme, eta, m, L, mu)


@pytest.mark.parametrize("figure,constants", [
    ("1a", dict(eta=0.1, L=1.0, mu=1e-5)),
    ("1b", dict(eta=0.5, L=1.0, mu=1e-5)),
])
def test_figure_m_grids_match_oracle(figure, constants):
    for row in figure_grid(figure):
        if row.value is None:
            continue
        assert_matches_oracle(row.scheme, constants["eta"], int(row.x),
                              constants["L"], constants["mu"])


def test_figure_eta_grid_matches_oracle():
    for row in figure_grid("2"):
        if row.value is not None:
            assert_matches_oracle(row.scheme, row.x, 10 ** 6, 1.0, 1e-5)


def test_figure_4b_matches_oracle():
    kappa = 1388.0
    for row in figure_grid("4b-analytic"):
        if row.value is not None:
            m = max(2, math.ceil(kappa / row.x))
            assert_matches_oracle(row.scheme, row.x, m, 1.0, 1.0 / kappa)


def test_random_in_domain_points_match_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        L = float(rng.uniform(0.5, 4.0))
        mu = L * float(10.0 ** rng.uniform(-6, -0.5))
        m = int(rng.integers(2, 10 ** 5))
        eta_s = float(rng.uniform(1e-4, 0.499)) / L
        assert_matches_oracle("svrg_w", eta_s, m, L, mu)
        assert_matches_oracle("svrg_u", eta_s, m, L, mu)
        eta = float(rng.uniform(1e-4, 0.999)) / L
        assert_matches_oracle("sarah_w", eta, m, L, mu)
        assert_matches_oracle("sarah_u", eta, m, L, mu)
        eta_l = float(rng.uniform(1e-4, 2.0)) / (L + mu)
        assert_matches_oracle("sarah_l", eta_l, m, L, mu)


@pytest.mark.parametrize("eta", [0.05, 0.09, 0.11, 0.2])
def test_sarah_weighted_normalizer_across_series_switch(eta):
    # mu*eta*(m-1) straddles the series/closed-form boundary at 1e-3
    assert_matches_oracle("sarah_w", eta, 1001, 1.0, 1e-5)


def test_sarah_weighted_tiny_delta_stress():
    # closed form would lose ~all digits here; the series path must not
    assert_matches_oracle("sarah_w", 1e-7, 50, 1.0, 1e-5)
    assert_matches_oracle("sarah_w", 1e-9, 2000, 1.0, 1e-6)


def test_sarah_weighted_series_at_huge_m():
    # mu*eta*(m-1) = 1e-9: the series branch, with m far past any array
    assert_matches_oracle("sarah_w", 1e-6, 10 ** 9, 1.0, 1e-12)
    assert_matches_oracle("sarah_w", 1e-6, 10 ** 12, 1.0, 1e-16)


def test_sarah_weighted_series_memory_does_not_grow_with_m():
    q = RateQuery(eta=1e-6, m=10 ** 7, L=1.0, mu=1e-12)
    tracemalloc.start()
    try:
        rate_sarah_weighted(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@settings(max_examples=400, deadline=None)
@given(scheme=st.sampled_from(sorted(SCHEME_RATES)),
       log_l=st.floats(-3.0, 3.0),
       log_kappa=st.floats(0.0, 12.0),
       log_eta_l=st.floats(-8.0, math.log10(3.0)),
       m=st.integers(2, 10 ** 12))
def test_rates_are_finite_or_undefined(scheme, log_l, log_kappa, log_eta_l, m):
    L = 10.0 ** log_l
    q = RateQuery(eta=10.0 ** log_eta_l / L, m=m, L=L,
                  mu=L / 10.0 ** log_kappa)
    value = SCHEME_RATES[scheme](q)
    assert value is None or (type(value) is float and math.isfinite(value))


def test_hand_frozen_values():
    q = RateQuery(eta=0.1, m=10 ** 7, L=1.0, mu=1e-5)
    assert rate_svrg_uniform(q) == pytest.approx(0.375, rel=1e-12)
    q = RateQuery(eta=0.5, m=4 * 10 ** 5, L=1.0, mu=1e-5)
    assert rate_sarah_uniform(q) == pytest.approx(0.5 + 1.0 / 3.0, rel=1e-12)
    q = RateQuery(eta=0.5, m=5 * 10 ** 5, L=1.0, mu=1e-5)
    assert rate_sarah_uniform(q) == pytest.approx(0.4 + 1.0 / 3.0, rel=1e-12)


def test_rate_point_check_near_point_eight():
    q = RateQuery(eta=0.5, m=5 * 10 ** 5, L=1.0, mu=1e-5)
    assert 0.75 <= rate_sarah_weighted(q) <= 0.85


@pytest.mark.parametrize("kappa", [10.0, 1e3, 1e5])
def test_standard_parameterization_constants(kappa):
    L, mu = 1.0, 1.0 / kappa
    q = RateQuery(eta=1.0 / (8.0 * L), m=int(24 * kappa) + 1, L=L, mu=mu)
    assert rate_svrg_weighted(q) <= 0.5
    q = RateQuery(eta=1.0 / (2.0 * L), m=int(6 * kappa), L=L, mu=mu)
    assert rate_sarah_weighted(q) <= 0.75


def test_figure_1a_dominance():
    rows = figure_grid("1a")
    w = {r.x: r.value for r in rows if r.scheme == "svrg_w"}
    u = {r.x: r.value for r in rows if r.scheme == "svrg_u"}
    assert all(w[x] <= u[x] for x in w)
    assert any(w[x] < 0.9 * u[x] for x in w)


def test_figure_1b_tail_dominance():
    rows = figure_grid("1b")
    w = {r.x: r.value for r in rows if r.scheme == "sarah_w"}
    u = {r.x: r.value for r in rows if r.scheme == "sarah_u"}
    tail = [x for x in w if x >= 10 * 1e5]
    assert tail
    assert all(w[x] <= u[x] for x in tail)
    assert any(w[x] < 0.95 * u[x] for x in tail)


def test_uniform_rates_decrease_in_m():
    for fn in (rate_svrg_uniform, rate_sarah_uniform):
        vals = [fn(RateQuery(eta=0.1, m=m, L=1.0, mu=1e-3))
                for m in (10, 100, 1000, 10000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_undefined_domains():
    assert rate_svrg_weighted(RateQuery(eta=0.5, m=10, L=1.0, mu=0.01)) is None
    assert rate_svrg_uniform(RateQuery(eta=0.6, m=10, L=1.0, mu=0.01)) is None
    assert rate_svrg_uniform(RateQuery(eta=0.49, m=10, L=1.0, mu=0.01)) is not None
    assert rate_sarah_weighted(RateQuery(eta=1.0, m=10, L=1.0, mu=0.01)) is None
    assert rate_sarah_weighted(RateQuery(eta=0.5, m=10, L=1.0, mu=1.0)) is None
    assert rate_sarah_uniform(RateQuery(eta=2.0, m=10, L=1.0, mu=0.01)) is None
    assert rate_sarah_last(RateQuery(eta=1.99, m=10, L=1.0, mu=0.01)) is None
    assert rate_sarah_last(
        RateQuery(eta=2.0 / 1.01, m=10, L=1.0, mu=0.01)) is not None


def test_guarantee_flag_vs_domain():
    inside = RateQuery(eta=0.2, m=10, L=1.0, mu=0.01)
    fringe = RateQuery(eta=0.26, m=10, L=1.0, mu=0.01)
    assert svrg_weighted_within_guarantee(inside)
    assert not svrg_weighted_within_guarantee(fringe)
    assert rate_svrg_weighted(fringe) is not None  # defined, just unflagged


def test_rate_query_validation():
    with pytest.raises(ValueError):
        RateQuery(eta=0.0, m=10)
    with pytest.raises(ValueError):
        RateQuery(eta=0.1, m=1)
    with pytest.raises(ValueError):
        RateQuery(eta=0.1, m=10, L=1.0, mu=0.0)
    with pytest.raises(ValueError):
        RateQuery(eta=0.1, m=10, L=0.5, mu=1.0)


def test_rate_grid_shapes_and_errors():
    rows = rate_grid(["sarah_u", "sarah_l"], L=1.0, mu=0.01, sweep="m",
                     points=[10, 100], eta=0.5)
    assert [(r.scheme, r.x) for r in rows] == \
        [("sarah_u", 10.0), ("sarah_u", 100.0),
         ("sarah_l", 10.0), ("sarah_l", 100.0)]
    assert all(isinstance(r, GridRow) for r in rows)
    with pytest.raises(ValueError):
        rate_grid(["nope"], L=1.0, mu=0.01, sweep="m", points=[10], eta=0.5)
    with pytest.raises(ValueError):
        rate_grid(["sarah_u"], L=1.0, mu=0.01, sweep="m", points=[], eta=0.5)
    with pytest.raises(ValueError):
        rate_grid(["sarah_u"], L=1.0, mu=0.01, sweep="m", points=[10])
    with pytest.raises(ValueError):
        rate_grid(["sarah_u"], L=1.0, mu=0.01, sweep="eta", points=[0.1])
    with pytest.raises(ValueError):
        rate_grid(["sarah_u"], L=1.0, mu=0.01, sweep="x", points=[1], eta=0.5)


def test_figure_ids_and_structure():
    assert set(FIGURE_IDS) == {"1a", "1b", "2", "4b-analytic"}
    rows_1a = figure_grid("1a")
    assert len(rows_1a) == 18 and all(r.defined for r in rows_1a)
    rows_1b = figure_grid("1b")
    assert len(rows_1b) == 26
    assert 5e5 in {r.x for r in rows_1b}
    rows_2 = figure_grid("2")
    assert len(rows_2) == 75
    rows_4b = figure_grid("4b-analytic")
    assert len(rows_4b) == 75
    # the tune-free sweep touches eta = 1/L, where the weighted bound is
    # undefined; the grid must say so rather than hide the point
    assert any(not r.defined for r in rows_4b if r.scheme == "sarah_w")
    with pytest.raises(ValueError):
        figure_grid("3")
