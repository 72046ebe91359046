import itertools
import re
import tracemalloc
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import ScriptedRng, whole_array_weights, whole_cumsum_sample
from vropt import AveragingScheme, averaging, sample_snapshot_index, weights

W_SVRG = AveragingScheme.WEIGHTED_SVRG
W_SARAH = AveragingScheme.WEIGHTED_SARAH
CHUNK = averaging._CHUNK

# documented support of each scheme's pmf over 0..m, and one index in it that
# always keeps positive mass (the heaviest)
SUPPORT = {
    AveragingScheme.UNIFORM: (lambda m: range(0, m), lambda m: 0),
    AveragingScheme.LAST_SVRG: (lambda m: range(m, m + 1), lambda m: m),
    AveragingScheme.LAST_SARAH: (lambda m: range(m - 1, m), lambda m: m - 1),
    W_SVRG: (lambda m: range(1, m), lambda m: m - 1),
    W_SARAH: (lambda m: range(0, m - 1), lambda m: 0),
}


def exact_svrg_weights(m, delta):
    """Rational oracle: p_k = (1-d)^(m-1-k) / sum over k in 1..m-1."""
    d = Fraction(delta)
    raw = [(1 - d) ** (m - 1 - k) for k in range(1, m)]
    q = sum(raw)
    return [Fraction(0)] + [r / q for r in raw] + [Fraction(0)]


def exact_sarah_weights(m, delta):
    """Rational oracle: p_k = (1 - (1-d)^(m-1-k)) / c for k in 0..m-2."""
    d = Fraction(delta)
    raw = [1 - (1 - d) ** (m - 1 - k) for k in range(m - 1)]
    c = sum(raw)
    return [r / c for r in raw] + [Fraction(0), Fraction(0)]


def test_frozen_weighted_svrg_m2():
    w = weights(W_SVRG, 2, mu=0.5, eta=1.0)
    assert w.tolist() == [0.0, 1.0, 0.0]


def test_frozen_weighted_sarah_m3():
    w = weights(W_SARAH, 3, mu=0.5, eta=1.0)
    assert np.allclose(w, [0.6, 0.4, 0.0, 0.0], atol=1e-12)


def test_frozen_uniform_m4():
    w = weights(AveragingScheme.UNIFORM, 4)
    assert np.allclose(w, [0.25, 0.25, 0.25, 0.25, 0.0], atol=0)


def test_last_iterate_schemes():
    w = weights(AveragingScheme.LAST_SVRG, 5)
    assert w.tolist() == [0, 0, 0, 0, 0, 1]
    w = weights(AveragingScheme.LAST_SARAH, 5)
    assert w.tolist() == [0, 0, 0, 0, 1, 0]


@pytest.mark.parametrize("m,delta", [(2, 0.25), (3, 0.25), (6, 0.25),
                                     (6, 0.03125), (17, 0.5)])
def test_weighted_svrg_matches_rational_oracle(m, delta):
    w = weights(W_SVRG, m, mu=delta, eta=1.0)
    exact = [float(p) for p in exact_svrg_weights(m, delta)]
    assert np.allclose(w, exact, atol=1e-14)


@pytest.mark.parametrize("m,delta", [(2, 0.25), (3, 0.5), (6, 0.25),
                                     (6, 0.03125), (17, 0.5)])
def test_weighted_sarah_matches_rational_oracle(m, delta):
    w = weights(W_SARAH, m, mu=delta, eta=1.0)
    exact = [float(p) for p in exact_sarah_weights(m, delta)]
    assert np.allclose(w, exact, atol=1e-14)


@pytest.mark.parametrize("scheme", list(AveragingScheme))
@pytest.mark.parametrize("m", [2, 3, 10, 257])
def test_weights_are_a_distribution(scheme, m):
    w = weights(scheme, m, mu=1e-3, eta=0.9)
    assert w.shape == (m + 1,)
    assert np.all(w >= 0)
    assert abs(float(np.sum(w)) - 1.0) <= 1e-12
    assert w.dtype == np.float64 and not w.flags.writeable


def weights_or_documented_error(scheme, m, delta):
    """weights(), or None when it raises the one ValueError documented for
    m >= 2 and 0 < mu*eta < 1: a degenerate WEIGHTED_SARAH normalizer."""
    try:
        return weights(scheme, m, mu=delta, eta=1.0)
    except ValueError as err:
        assert scheme is W_SARAH and "degenerate" in str(err), err
        return None


pmf_cases = dict(
    scheme=st.sampled_from(list(AveragingScheme)),
    m=st.integers(2, 3000),
    delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


@settings(max_examples=300, deadline=None)
@given(**pmf_cases)
def test_weights_pmf_has_documented_support(scheme, m, delta):
    w = weights_or_documented_error(scheme, m, delta)
    if w is None:
        return
    support, heaviest = SUPPORT[scheme]
    assert w.shape == (m + 1,)
    assert np.all(w >= 0)
    assert abs(float(np.sum(w)) - 1.0) <= 1e-9
    assert set(np.flatnonzero(w).tolist()) <= set(support(m))
    assert w[heaviest(m)] > 0
    if scheme in (AveragingScheme.UNIFORM, AveragingScheme.LAST_SVRG,
                  AveragingScheme.LAST_SARAH):
        assert set(np.flatnonzero(w).tolist()) == set(support(m))


@settings(max_examples=300, deadline=None)
@given(u=st.floats(0.0, 1.0, exclude_max=True), **pmf_cases)
def test_sampled_index_lies_in_support(scheme, m, delta, u):
    w = weights_or_documented_error(scheme, m, delta)
    if w is None:
        return
    k = sample_snapshot_index(w, ScriptedRng(uniform=[u]))
    assert k in SUPPORT[scheme][0](m)
    assert w[k] > 0


def inverse_cdf_oracle(w, u):
    """Inversion over the sequential partial sums of w, clamped to the last
    index with positive weight: the sampler's definition."""
    idx = bisect_right(list(itertools.accumulate(w.tolist())), u)
    return min(idx, max(k for k, p in enumerate(w.tolist()) if p > 0))


@settings(max_examples=300, deadline=None)
@given(u=st.floats(0.0, 1.0, exclude_max=True),
       ulps_from_total=st.sampled_from([None, -1, 0, 1, 2]), **pmf_cases)
def test_sampler_matches_inverse_cdf_oracle(scheme, m, delta, u,
                                            ulps_from_total):
    w = weights_or_documented_error(scheme, m, delta)
    if w is None:
        return
    if ulps_from_total is not None:
        # u at, just below and past cum[-1], which may lie either side of 1
        u = float(np.cumsum(w)[-1])
        for _ in range(abs(ulps_from_total)):
            u = float(np.nextafter(u, np.sign(ulps_from_total) * np.inf))
    rng = ScriptedRng(uniform=[u])
    assert sample_snapshot_index(w, rng) == inverse_cdf_oracle(w, u)
    assert rng.uniform == []


# pmfs around the sampler's chunk boundaries, and long ones, for decay rates
# from nearly flat to steep
long_pmf_cases = dict(
    scheme=st.sampled_from(list(AveragingScheme)),
    m=st.sampled_from([2, 3, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    | st.integers(2, 10**5),
    delta=st.floats(1e-7, 0.5, exclude_min=True, exclude_max=True))


def oracle_weights_or_error(scheme, m, delta):
    """The oracle's pmf, after checking that weights() gives its bytes and
    flags; None when both raise the same ValueError."""
    try:
        want = whole_array_weights(scheme, m, mu=delta, eta=1.0)
    except ValueError as err:
        with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
            weights(scheme, m, mu=delta, eta=1.0)
        return None
    got = weights(scheme, m, mu=delta, eta=1.0)
    assert got.dtype == np.float64 and not got.flags.writeable
    assert got.tobytes() == want.tobytes()
    return got


def chunk_edge_uniforms(w, chunk):
    """0.0; the running sum at each chunk's last index, exactly and one ulp
    either side; and draws at, past and just below the total and 1."""
    cum = np.cumsum(w)
    edges = cum[chunk - 1::chunk].tolist() + [float(cum[-1]), 1.0]
    return [0.0] + [float(np.nextafter(e, to)) if to is not None else e
                    for e in edges for to in (None, -np.inf, np.inf)]


def assert_draws_match_oracle(w, uniforms):
    for u in uniforms:
        rng = ScriptedRng(uniform=[u])
        want = whole_cumsum_sample(w, ScriptedRng(uniform=[u]))
        assert sample_snapshot_index(w, rng) == want, u
        assert rng.uniform == []


@settings(max_examples=150, deadline=None)
@given(**long_pmf_cases)
def test_pmf_and_draws_match_the_whole_array_oracles(scheme, m, delta):
    w = oracle_weights_or_error(scheme, m, delta)
    if w is not None:
        assert_draws_match_oracle(w, chunk_edge_uniforms(w, CHUNK))


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
@pytest.mark.parametrize("scheme", list(AveragingScheme))
@pytest.mark.parametrize("m", [2, 3, 6, 7, 8, 22])
def test_draws_match_the_oracle_across_small_chunks(monkeypatch, chunk,
                                                     scheme, m):
    # many chunks per pmf: draws in every chunk, and a draw past the total
    # whose last positive weight lies chunks before the end
    monkeypatch.setattr(averaging, "_CHUNK", chunk)
    w = oracle_weights_or_error(scheme, m, 0.125)
    cum = np.cumsum(w).tolist()
    uniforms = chunk_edge_uniforms(w, chunk) + cum + [
        float(np.nextafter(c, -np.inf)) for c in cum]
    assert_draws_match_oracle(w, uniforms)


@pytest.mark.parametrize("args", [
    (AveragingScheme.UNIFORM, 1), (AveragingScheme.LAST_SARAH, 0),
    (W_SVRG, 4), (W_SARAH, 4, 1.0), (W_SVRG, 4, 2.0, 0.5),
    (W_SARAH, 4, 0.0, 1.0), (W_SARAH, 2, 1e-300, 1.0)])
def test_weights_errors_match_the_oracle(args):
    with pytest.raises(ValueError) as want:
        whole_array_weights(*args)
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        weights(*args)


@pytest.mark.parametrize("scheme", [AveragingScheme.UNIFORM, W_SVRG,
                                    W_SARAH])
def test_one_draw_holds_one_pmf(scheme):
    # tracemalloc counts numpy's array buffers: building the pmf and drawing
    # from it may hold the pmf and one chunk of running sums, not more
    m = 10**6
    tracemalloc.start()
    try:
        sample_snapshot_index(weights(scheme, m, mu=1e-3, eta=0.9),
                              np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * (m + 1)


def test_weighted_svrg_weights_increase_toward_snapshot():
    w = weights(W_SVRG, 9, mu=0.05, eta=1.0)
    inner = w[1:9]
    assert np.all(np.diff(inner) > 0)
    assert w[0] == 0 and w[9] == 0


def test_weighted_sarah_weights_decrease():
    w = weights(W_SARAH, 9, mu=0.05, eta=1.0)
    inner = w[:8]
    assert np.all(np.diff(inner) < 0)
    assert w[8] == 0 and w[9] == 0


def test_weighted_svrg_small_delta_limit_is_uniform():
    w = weights(W_SVRG, 10, mu=1e-8, eta=1.0)
    assert np.allclose(w[1:10], 1.0 / 9.0, atol=1e-6)


def test_weighted_sarah_small_delta_limit_is_triangular():
    m = 10
    w = weights(W_SARAH, m, mu=1e-8, eta=1.0)
    tri = np.array([m - 1 - k for k in range(m - 1)], dtype=float)
    tri /= tri.sum()
    assert np.allclose(w[:m - 1], tri, atol=1e-6)


def test_weights_validation():
    with pytest.raises(ValueError):
        weights(AveragingScheme.UNIFORM, 1)
    with pytest.raises(ValueError):
        weights(W_SVRG, 4)  # needs mu and eta
    with pytest.raises(ValueError):
        weights(W_SVRG, 4, mu=1.0, eta=1.0)  # mu*eta >= 1
    with pytest.raises(ValueError):
        weights(W_SARAH, 4, mu=2.0, eta=0.5)
    # a scheme's value is no scheme
    with pytest.raises(ValueError, match=r"^unknown scheme uniform$"):
        weights("uniform", 5, 0.1, 0.1)


def test_sampler_rejects_invalid_pmf():
    for bad, message in [([0.5, 0.4], "sum to"), ([1.5, -0.5], "nonnegative"),
                         ([0.5, np.nan], "sum to"), ([], "nonempty"),
                         ([[0.5], [0.5]], "1-D")]:
        rng = ScriptedRng(uniform=[0.5])
        with pytest.raises(ValueError, match=message):
            sample_snapshot_index(np.array(bad), rng)


@pytest.mark.parametrize("excess", [0.5, 1e-6, np.inf, np.nan])
def test_sampler_checks_the_total_after_the_draw(monkeypatch, excess):
    # u lands in chunk 0 while the excess weight sits chunks later: the one
    # draw is spent, and the total is still checked
    monkeypatch.setattr(averaging, "_CHUNK", 2)
    w = np.array([0.25, 0.25, 0.25, 0.25, excess])
    rng = ScriptedRng(uniform=[0.1])
    with pytest.raises(ValueError, match="sum to"):
        sample_snapshot_index(w, rng)
    assert rng.uniform == []


def test_sampler_inverse_cdf_boundaries():
    w = weights(AveragingScheme.UNIFORM, 4)  # mass 1/4 on 0..3
    picks = [sample_snapshot_index(w, ScriptedRng(uniform=[u]))
             for u in (0.0, 0.24999, 0.25, 0.74999, 0.75, 0.999999)]
    assert picks == [0, 0, 1, 2, 3, 3]


def test_sampler_never_returns_zero_probability_index():
    w = weights(AveragingScheme.LAST_SARAH, 6)  # all mass on index 5
    assert sample_snapshot_index(w, ScriptedRng(uniform=[0.9999999999])) == 5
    assert sample_snapshot_index(w, ScriptedRng(uniform=[0.0])) == 5
    w2 = weights(W_SARAH, 12, mu=0.01, eta=1.0)
    hi = sample_snapshot_index(w2, ScriptedRng(uniform=[1.0 - 1e-16]))
    assert w2[hi] > 0
    # float cumsum can end slightly below 1 (here 0.9999999999999999, with
    # w[10] = w[11] = 0); a draw at or past it must take the last index
    # with positive weight, not searchsorted's 12, past the end of w
    w3 = weights(W_SARAH, 11, mu=0.01, eta=1.0)
    u = float(np.cumsum(w3)[-1])
    assert u < 1.0
    assert sample_snapshot_index(w3, ScriptedRng(uniform=[u])) == 9


def test_sampler_consumes_exactly_one_draw():
    w = weights(AveragingScheme.UNIFORM, 3)
    rng = ScriptedRng(uniform=[0.5, 0.9])
    sample_snapshot_index(w, rng)
    assert len(rng.uniform) == 1


def test_sampler_distribution_weighted_sarah():
    w = weights(W_SARAH, 6, mu=0.3, eta=1.0)
    rng = np.random.default_rng(42)
    draws = np.array([sample_snapshot_index(w, rng) for _ in range(30000)])
    freq = np.bincount(draws, minlength=7) / draws.size
    assert np.max(np.abs(freq - w)) <= 0.02
    live = w > 0
    chi = stats.chisquare(np.bincount(draws, minlength=7)[live],
                          draws.size * w[live])
    assert chi.pvalue > 1e-4


def test_sampler_distribution_weighted_svrg():
    w = weights(W_SVRG, 5, mu=0.4, eta=1.0)
    rng = np.random.default_rng(4242)
    draws = np.array([sample_snapshot_index(w, rng) for _ in range(30000)])
    freq = np.bincount(draws, minlength=6) / draws.size
    assert np.max(np.abs(freq - w)) <= 0.02
