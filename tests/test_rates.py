import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import vropt.rates
from vropt import (FIGURE_IDS, GridRow, RateQuery, figure_grid, rate_grid,
                   rate_sarah_last, rate_sarah_uniform, rate_sarah_weighted,
                   rate_svrg_uniform, rate_svrg_weighted)
from vropt.harness import format_rate_csv
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


def test_calculators_keep_their_names_and_docstrings():
    # each calculator is filed under its key as it is defined: the keys in
    # definition order, each mapped to the public (wrapped) function
    assert list(SCHEME_RATES.items()) == list(FNS.items())
    for key, fn in SCHEME_RATES.items():
        assert fn is FNS[key] is getattr(vropt.rates, fn.__name__)
        assert fn.__doc__ == fn.__wrapped__.__doc__ and "rate" in fn.__doc__


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


# where each formula is undefined: a None anywhere else would be a
# numerical failure passed off as a domain edge
_UNDEFINED = {
    "svrg_w": lambda eta, L, mu: eta >= 1.0 / (2.0 * L),
    "svrg_u": lambda eta, L, mu: eta >= 1.0 / (2.0 * L),
    "sarah_w": lambda eta, L, mu: eta >= 1.0 / L or L == mu,
    "sarah_u": lambda eta, L, mu: eta >= 2.0 / L,
    "sarah_l": lambda eta, L, mu: eta > 2.0 / (mu + L),
}


def overflow_message(scheme, eta, m):
    return f"the {scheme} bound at eta={eta!r}, m={m} overflows in floats"


@settings(max_examples=1000, deadline=None)
@given(scheme=st.sampled_from(sorted(SCHEME_RATES)),
       log_mu=st.floats(-300.0, 300.0),
       log_kappa=st.floats(0.0, 40.0),
       eta=st.one_of(st.floats(5e-324, 2.2250738585072014e-308),  # subnormal
                     st.floats(-323.0, 300.0).map(lambda e: 10.0 ** e)),
       # a larger m is refused by RateQuery (test_an_m_past_the_floats...)
       m=st.one_of(st.integers(2, 10 ** 12),
                   st.integers(2, int(sys.float_info.max))))
@example("svrg_u", -5.0, 5.0, 1e-305, 10)  # once returned inf
@example("sarah_w", -5.0, 5.0, 1e-300, 10)  # once raised ZeroDivisionError
@example("svrg_w", -5.0, 5.0, 5e-324, 10)  # mu*eta underflows to 0
@example("sarah_w", -5.0, 5.0, 1e-3, int(sys.float_info.max))
def test_rates_are_finite_or_undefined(scheme, log_mu, log_kappa, eta, m):
    # the whole RateQuery domain: every calculator returns None where its
    # formula is undefined, else a finite float, or refuses a bound whose
    # float evaluation overflows
    mu = 10.0 ** log_mu
    L = min(mu * 10.0 ** log_kappa, sys.float_info.max)
    q = RateQuery(eta, m, L, mu)
    try:
        value = SCHEME_RATES[scheme](q)
    except ValueError as exc:
        assert str(exc) == overflow_message(scheme, eta, m)
        return
    if value is None:
        assert _UNDEFINED[scheme](eta, L, mu)
    else:
        assert type(value) is float and math.isfinite(value)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(int(sys.float_info.max) + 1, 2 ** 1100))
def test_an_m_past_the_floats_is_refused_by_the_query(m):
    with pytest.raises(ValueError) as info:
        RateQuery(0.1, m)
    assert str(info.value) == ("m must be at most the largest float, got an "
                               f"integer of {m.bit_length()} bits")


@pytest.mark.parametrize("m", [10.0, 10.5, 1e-10, 1e300, "10",
                               np.float64(10.0), None])
def test_rate_query_refuses_an_m_that_is_no_integer(m):
    # a float m once crashed rate_sarah_weighted's series (range(1, m)) and
    # gave the other calculators a rate for a fractional loop length
    with pytest.raises(ValueError) as info:
        RateQuery(1e-10, m)
    assert str(info.value) == f"m must be an integer, got {m!r}"


@pytest.mark.parametrize("m", [np.int64(10), np.uint8(10)])
def test_rate_query_takes_an_integer_m_as_an_int(m):
    q = RateQuery(1e-10, m)
    assert type(q.m) is int and q.m == 10
    assert rate_sarah_weighted(q) == rate_sarah_weighted(RateQuery(1e-10, 10))


def test_rate_query_names_m_below_two():
    for m in (1, np.int64(1), False, -2 ** 1100):
        with pytest.raises(ValueError) as info:
            RateQuery(0.1, m)
        assert str(info.value) == f"m must be finite and >= 2, got {int(m)!r}"


@pytest.mark.parametrize("scheme,q", [
    # mu*eta = 1e-5 * 5e-324 underflows to 0, which these bounds divide by
    ("svrg_w", RateQuery(5e-324, 10)),
    ("svrg_u", RateQuery(5e-324, 10)),
    ("sarah_u", RateQuery(5e-324, 10)),
    # c*mu*eta underflows to 0
    ("sarah_w", RateQuery(1e-300, 10)),
    # at the domain's edge eta = 2/(mu + L), eta*L rounds to 2 once
    # kappa passes 1e16
    ("sarah_l", RateQuery(2.0, 10, 1.0, 1e-20)),
], ids=["svrg_w", "svrg_u", "sarah_u", "sarah_w", "sarah_l"])
def test_a_bound_past_the_floats_is_refused(scheme, q):
    with pytest.raises(ValueError) as info:
        SCHEME_RATES[scheme](q)
    assert str(info.value) == overflow_message(scheme, q.eta, q.m)


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
    # past the guarantee's 1/(4L) and short of the domain's 1/(2L): the
    # formula is still defined there
    fringe = RateQuery(eta=0.26, m=10, L=1.0, mu=0.01)
    assert rate_svrg_weighted(fringe) is not None


def test_rate_query_validation():
    with pytest.raises(ValueError):
        RateQuery(eta=0.0, m=10)
    with pytest.raises(ValueError):
        RateQuery(eta=0.1, m=1)
    with pytest.raises(ValueError):
        RateQuery(eta=0.1, m=10, L=1.0, mu=0.0)
    with pytest.raises(ValueError):
        RateQuery(eta=0.1, m=10, L=0.5, mu=1.0)


@pytest.mark.parametrize("field", ["eta", "m", "L", "mu"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rate_query_rejects_non_finite_fields(field, bad):
    fields = dict(eta=0.1, m=10, L=1.0, mu=1e-3)
    fields[field] = bad
    with pytest.raises(ValueError, match=rf"\b{field}\b") as info:
        RateQuery(**fields)
    assert repr(bad) in str(info.value)


_PAST_THE_FLOATS = ("must be at most the largest float in magnitude, got an "
                    "integer of 1329 bits")


@pytest.mark.parametrize("field", ["eta", "L", "mu"])
@pytest.mark.parametrize("big", [10 ** 400, -10 ** 400])
def test_rate_query_refuses_an_int_past_the_floats(field, big):
    fields = dict(eta=0.1, m=10, L=1.0, mu=1e-5)
    fields[field] = big
    with pytest.raises(ValueError) as info:
        RateQuery(**fields)
    assert str(info.value) == f"{field} {_PAST_THE_FLOATS}"


def test_an_int_past_the_floats_is_refused_before_any_bound():
    # once refused as the svrg_u bound's overflow, a None, and a bare
    # OverflowError from rate_grid's own conversion
    repros = [
        ("L", lambda: rate_svrg_uniform(RateQuery(0.1, 10, 10 ** 400, 1e-5))),
        ("eta", lambda: rate_sarah_last(RateQuery(10 ** 400, 10, 1.0, 1e-5))),
        ("L", lambda: rate_grid(["svrg_u"], 10 ** 400, 1e-5, "eta", [0.1],
                                m=10)),
        ("eta", lambda: rate_grid(["svrg_u"], 1.0, 1e-5, "eta", [10 ** 400],
                                  m=10)),
    ]
    for field, call in repros:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"{field} {_PAST_THE_FLOATS}"


@pytest.mark.parametrize("field", ["eta", "L", "mu"])
@pytest.mark.parametrize("big", [Fraction(10 ** 400), -Fraction(10 ** 401, 3)])
def test_rate_query_refuses_a_fraction_past_the_floats(field, big):
    # once a bare OverflowError from the float() conversion
    fields = dict(eta=0.1, m=10, L=1.0, mu=1e-5)
    fields[field] = big
    with pytest.raises(ValueError) as info:
        RateQuery(**fields)
    assert str(info.value) == (f"{field} must be at most the largest float "
                               "in magnitude, got a Fraction")


@pytest.mark.parametrize("scheme,eta,m,L,mu", [
    # once refused because eta ** 2 overflowed, with mu*L below the floats
    ("svrg_w", 1e200, 10, 1e-300, 1e-300),
    # once refused because the series' first term m*(m-1)/2 left the floats
    ("sarah_w", 1e-300, 2 * 10 ** 154, 1.0, 1e-5),
    ("sarah_w", 1e-300, 10 ** 200, 1.0, 1e-5),
    ("sarah_w", 1e-6, 10 ** 300, 1.0, 1e-300),
], ids=["svrg_w-eta-1e200", "sarah_w-m-2e154", "sarah_w-m-1e200",
        "sarah_w-m-1e300"])
def test_a_finite_bound_with_extreme_fields_matches_oracle(scheme, eta, m, L,
                                                          mu):
    # the closed form cancels some 210 digits at these fields
    with mp.workdps(400):
        assert_matches_oracle(scheme, eta, m, L, mu)


@pytest.mark.parametrize("value", [2, np.float32(2.0), np.int64(2),
                                   np.float64(2.0), True, Fraction(2)])
@pytest.mark.parametrize("field", ["eta", "L", "mu"])
def test_rate_query_holds_a_real_number_as_a_float(field, value):
    fields = dict(eta=0.1, m=10, L=4.0, mu=1e-5)
    fields[field] = value
    q = RateQuery(**fields)
    assert all(type(v) is float for v in (q.eta, q.L, q.mu))
    assert getattr(q, field) == float(value)
    assert q == RateQuery(**dict(fields, **{field: float(value)}))


@pytest.mark.parametrize("field", ["eta", "L", "mu"])
def test_rate_query_refuses_a_str(field):
    fields = dict(eta=0.1, m=10, L=1.0, mu=1e-5)
    fields[field] = "0.5"
    with pytest.raises(ValueError) as info:
        RateQuery(**fields)
    assert str(info.value) == f"{field} must be a real number, got '0.5'"


def test_rate_query_and_grid_row_are_validated_named_tuples():
    q = RateQuery(eta=0.25, m=40, L=2.0, mu=0.5)
    assert q == RateQuery(0.25, 40, 2.0, 0.5) == (0.25, 40, 2.0, 0.5)
    assert RateQuery(eta=0.1, m=3) == (0.1, 3, 1.0, 1e-5)
    assert repr(q) == "RateQuery(eta=0.25, m=40, L=2.0, mu=0.5)"
    assert (q.eta, q.m, q.L, q.mu, q.kappa) == (0.25, 40, 2.0, 0.5, 4.0)
    assert q._replace(m=50) == (0.25, 50, 2.0, 0.5)
    with pytest.raises(ValueError, match="m must be"):
        q._replace(m=1)
    with pytest.raises(AttributeError):
        q.eta = 1.0
    row = GridRow(scheme="sarah_u", x=2.0, value=None)
    assert repr(row) == "GridRow(scheme='sarah_u', x=2.0, value=None)"
    assert not row.defined and GridRow("sarah_u", 2.0, 0.5).defined
    assert tuple(row) == ("sarah_u", 2.0, None)


@pytest.mark.parametrize("sweep,points,fixed,shown", [
    ("m", [10.0, float("1e400")], dict(eta=0.1), "inf"),
    ("m", [math.nan], dict(eta=0.1), "nan"),
    ("m", [-math.inf], dict(eta=0.1), "-inf"),
    ("eta", [0.1, math.inf], dict(m=10), "inf"),
    ("eta", [math.nan], dict(m=10), "nan"),
])
def test_rate_grid_rejects_non_finite_points(sweep, points, fixed, shown):
    with pytest.raises(ValueError) as info:
        rate_grid(["svrg_u"], L=1.0, mu=1e-3, sweep=sweep, points=points,
                  **fixed)
    assert str(info.value) == f"{sweep} sweep point {shown} is not finite"


def reference_grid(schemes, L, mu, sweep, points, eta=None, m=None):
    """rate_grid as its definition reads: one query and call per row."""
    rows = []
    for s in schemes:
        for x in points:
            if sweep == "m":
                q = RateQuery(eta=eta, m=int(x), L=L, mu=mu)
            else:
                q = RateQuery(eta=float(x), m=m, L=L, mu=mu)
            rows.append(GridRow(s, float(x), SCHEME_RATES[s](q)))
    return rows


@settings(max_examples=300, deadline=None)
@given(schemes=st.lists(st.sampled_from(sorted(SCHEME_RATES)), min_size=1,
                        max_size=5, unique=True),
       sweep=st.sampled_from(["m", "eta"]),
       log_l=st.floats(-3.0, 3.0),
       log_kappa=st.floats(0.0, 12.0),
       log_eta_l=st.lists(st.floats(-8.0, math.log10(3.0)), min_size=1,
                          max_size=8),
       ms=st.lists(st.one_of(st.integers(2, 10 ** 12),
                             st.integers(2, 10 ** 9).map(float)),
                   min_size=1, max_size=8))
def test_rate_grid_matches_per_row_queries(schemes, sweep, log_l, log_kappa,
                                           log_eta_l, ms):
    L = 10.0 ** log_l
    mu = L / 10.0 ** log_kappa
    if sweep == "m":
        args = dict(points=ms, eta=10.0 ** log_eta_l[0] / L)
    else:
        args = dict(points=[10.0 ** e / L for e in log_eta_l],
                    m=int(ms[0]))
    got = rate_grid(schemes, L=L, mu=mu, sweep=sweep, **args)
    want = reference_grid(schemes, L, mu, sweep, **args)
    assert got == want
    assert all(type(row) is GridRow for row in got)
    assert all(type(a.value) is type(b.value) for a, b in zip(got, want))
    assert all(row.value is None or math.isfinite(row.value) for row in got)


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(["eta", "m", "L", "mu"]), data=st.data(),
       log_l=st.floats(-3.0, 3.0), log_kappa=st.floats(0.0, 12.0))
def test_rate_query_rejects_every_bad_field(field, data, log_l, log_kappa):
    L = 10.0 ** log_l
    fields = dict(eta=0.1 / L, m=10, L=L, mu=L / 10.0 ** log_kappa)
    RateQuery(**fields)  # the unaltered point is valid
    out_of_domain = {
        "eta": st.floats(max_value=0.0, allow_nan=False),
        "m": st.one_of(st.integers(max_value=1),
                       st.floats(max_value=1.99, allow_nan=False)),
        "L": st.floats(min_value=-1e300, max_value=fields["mu"],
                       exclude_max=True),
        "mu": st.one_of(st.floats(max_value=0.0, allow_nan=False),
                        st.floats(min_value=L, exclude_min=True,
                                  allow_infinity=False)),
    }[field]
    fields[field] = data.draw(st.one_of(_NON_FINITE, out_of_domain))
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        RateQuery(**fields)


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
    with pytest.raises(ValueError, match="no schemes"):
        rate_grid([], L=1.0, mu=0.01, sweep="m", points=[10], eta=0.5)
    # an m point is the m its rate belongs to, never rounded to one
    for point in (2.4, 2.5, 3.5, 1e3 + 0.5, 1e12 + 0.25):
        with pytest.raises(ValueError, match=f"m sweep point {point!r} is "
                                             "not a whole number"):
            rate_grid(["sarah_u"], L=1.0, mu=1e-3, sweep="m",
                      points=[10.0, point], eta=0.1)


@pytest.mark.parametrize("schemes", [["svrg_u", "svrg_u"],
                                     ("sarah_w", "svrg_u", "sarah_w")])
def test_rate_grid_refuses_a_repeated_scheme_by_name(schemes):
    # a repeated scheme once gave each of its rows twice
    with pytest.raises(ValueError) as info:
        rate_grid(schemes, L=1.0, mu=1e-3, sweep="m", points=[10], eta=0.1)
    assert str(info.value) == f"scheme {schemes[0]!r} is given more than once"


@pytest.mark.parametrize("sweep,points,fixed", [
    ("m", [10], dict(eta=0.1, m=5)), ("eta", [0.1], dict(m=50, eta=0.3))])
def test_rate_grid_refuses_the_swept_coordinate_as_fixed(sweep, points,
                                                          fixed):
    with pytest.raises(ValueError) as info:
        rate_grid(["svrg_u"], L=1.0, mu=1e-3, sweep=sweep, points=points,
                  **fixed)
    assert str(info.value) == f"sweep over {sweep} takes no fixed {sweep}"


@pytest.mark.parametrize("numpy_args,python_args", [
    # once written as svrg_u,0.1,np.float64(1250.2499999999998),true
    (dict(sweep="eta", points=[0.1, 0.2], m=np.int64(1000)),
     dict(sweep="eta", points=[0.1, 0.2], m=1000)),
    # once written as sarah_u,100.0,np.float64(40.142857142857146),true
    (dict(sweep="m", points=[100.0, 1000.0], eta=np.float64(0.25)),
     dict(sweep="m", points=[100.0, 1000.0], eta=0.25)),
    (dict(sweep="m", points=[np.int64(100), np.float32(1000.0)], eta=0.25,
          L=np.float32(2.0), mu=np.float64(1e-3)),
     dict(sweep="m", points=[100.0, 1000.0], eta=0.25, L=2.0, mu=1e-3)),
])
def test_rate_rows_hold_python_numbers(numpy_args, python_args):
    schemes = ["svrg_u", "sarah_w", "sarah_u"]
    numpy_args = dict(dict(L=1.0, mu=1e-5), **numpy_args)
    python_args = dict(dict(L=1.0, mu=1e-5), **python_args)
    rows = rate_grid(schemes, **numpy_args)
    assert all(type(r.x) is float for r in rows)
    assert all(r.value is None or type(r.value) is float for r in rows)
    assert any(r.defined for r in rows)
    assert format_rate_csv(rows) == format_rate_csv(
        rate_grid(schemes, **python_args))


def test_figure_rows_hold_python_numbers():
    for figure in FIGURE_IDS:
        for r in figure_grid(figure):
            assert type(r.x) is float
            assert r.value is None or type(r.value) is float


@pytest.mark.parametrize("args", [
    dict(sweep="m", points=[10.0], eta="0.1"),
    dict(sweep="eta", points=[0.1], m="10"),
    dict(sweep="eta", points=[0.1], m=10, L="1.0"),
    dict(sweep="eta", points=[0.1], m=10, mu="1e-3"),
    dict(sweep="eta", points=["0.1"], m=10),
])
def test_rate_grid_takes_no_string_for_a_number(args):
    args = dict(dict(L=1.0, mu=1e-3), **args)
    with pytest.raises((TypeError, ValueError)):
        rate_grid(["svrg_u"], **args)


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
