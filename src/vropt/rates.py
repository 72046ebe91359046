"""Closed-form per-outer-loop convergence-rate calculators lambda(eta, m, L, mu)
for every solver/averaging pair, plus sweep grids that reproduce the analytic
comparison figures.

Each calculator returns the contraction factor of its tracked metric (function
gap for the corrected-gradient solver, squared gradient norm for the recursive
one) or None where the formula's preconditions fail; callers render such
points as gaps, never as silent NaNs. A bound whose float evaluation
overflows, or divides by a zero that underflow or rounding made, is refused
with a ValueError naming the scheme, eta and m: a calculator never returns
inf. The formulas are upper bounds: measured contraction may be much smaller,
never meaningfully larger.

A RateQuery is a named tuple (eta, m, L, mu) that checks its fields when it
is made: eta, L and mu must be real numbers, held as Python floats, that are
finite, with eta > 0 and L >= mu > 0, and m an integer from 2 to the largest
float, else ValueError names the field. A rate grid validates its sweep
once, makes one query per sweep point, evaluates every scheme on it and
returns GridRow named tuples (scheme, x, value) of Python numbers. The
figures' log-spaced grids come from math alone:
10 ** (a + i*step) through the C library's pow, so their bytes do not depend
on which SIMD kernels an array library picks for the CPU.

Powers (1-delta)^m are evaluated as exp(m*log1p(-delta)), each one once per
call; the weighted-recursive normalizer switches to its binomial series in
delta when delta*(m-1) < 1e-3, where the closed form loses accuracy to
cancellation. The series converges in a few terms there, so every calculator
takes O(1) time and memory whatever m is.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import sys
from typing import Callable, Iterable, NamedTuple, Sequence

from .averaging import SCHEMES
from .solvers import inner_length

__all__ = [
    "RateQuery", "GridRow",
    "rate_svrg_weighted", "rate_svrg_uniform",
    "rate_sarah_weighted", "rate_sarah_uniform", "rate_sarah_last",
    "rate_grid", "figure_grid", "FIGURE_IDS",
]

_INF = math.inf
_FLOAT_MAX = sys.float_info.max


class _RateQueryFields(NamedTuple):
    eta: float
    m: int
    L: float = 1.0
    mu: float = 1e-5


def _real(name: str, value):
    """value as a Python float when it is a real number (an int, a Fraction
    or a numpy scalar included), else as given, for RateQuery to refuse.
    ValueError names the field of a real number past the largest float."""
    if not isinstance(value, numbers.Real):
        return value
    try:
        return float(value)
    except OverflowError:
        got = (f"an integer of {value.bit_length()} bits"
               if isinstance(value, int) else f"a {type(value).__name__}")
        raise ValueError(f"{name} must be at most the largest float in "
                         f"magnitude, got {got}") from None


class RateQuery(_RateQueryFields):
    """One rate evaluation point. kappa is always derived as L/mu; eta, L
    and mu are held as Python floats and m as a Python int, numpy scalars
    included.

    Raises:
        ValueError: eta, L or mu is NaN, infinite or a real number (an
            int, a Fraction) past the largest float, eta <= 0, m is no
            integer, m < 2, m is past the largest float, or the constants
            fail L >= mu > 0.
    """

    __slots__ = ()

    def __new__(cls, eta: float, m: int, L: float = 1.0, mu: float = 1e-5):
        if not type(eta) is type(L) is type(mu) is float:
            eta, L, mu = _real("eta", eta), _real("L", L), _real("mu", mu)
        # chained comparisons are False for NaN, so each test also rejects it
        if not 0.0 < eta < _INF:
            raise ValueError(f"eta must be positive and finite, got {eta!r}")
        if type(m) is not int:
            try:
                m = operator.index(m)
            except TypeError:
                raise ValueError(f"m must be an integer, got {m!r}") from None
        if not 2 <= m <= _FLOAT_MAX:
            raise ValueError(f"m must be finite and >= 2, got {m!r}" if m < 2
                             else "m must be at most the largest float, got "
                             f"an integer of {m.bit_length()} bits")
        if not 0.0 < mu <= L < _INF:  # else name what fails, L first
            if not -_INF < L < _INF:
                raise ValueError(f"L must be finite, got {L!r}")
            if not -_INF < mu < _INF:
                raise ValueError(f"mu must be finite, got {mu!r}")
            raise ValueError(f"need L >= mu > 0, got L={L!r}, mu={mu!r}")
        return tuple.__new__(cls, (eta, m, L, mu))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: validate there too
        return cls(*iterable)

    @property
    def kappa(self) -> float:
        return self.L / self.mu


def _pow1m(delta: float, exponent: float) -> float:
    """(1 - delta)^exponent without precision loss at tiny delta."""
    return math.exp(exponent * math.log1p(-delta))


def _one_minus_pow1m(delta: float, exponent: float) -> float:
    """1 - (1 - delta)^exponent, accurate when the power is near 1."""
    return -math.expm1(exponent * math.log1p(-delta))


# scheme key -> its calculator, in the order the calculators are defined
SCHEME_RATES: dict[str, Callable[[RateQuery], float | None]] = {}


def _bound(scheme: str):
    """Give a rate formula the one overflow refusal, and file the wrapped
    formula in SCHEME_RATES under scheme. The formula returns None outside
    its domain, else its bound; a bound that leaves the floats (a divisor
    that underflow or rounding made 0, a power past the floats) is refused
    with a ValueError naming the scheme, eta and m."""
    def wrap(formula: Callable[[RateQuery], float | None]):
        @functools.wraps(formula)
        def rate(q: RateQuery) -> float | None:
            try:
                value = formula(q)
            except (ZeroDivisionError, OverflowError):
                value = _INF
            if value is None or -_INF < value < _INF:
                return value
            raise ValueError(f"the {scheme} bound at eta={q.eta!r}, "
                             f"m={q.m} overflows in floats")
        SCHEME_RATES[scheme] = rate
        return rate
    return wrap


@_bound("svrg_w")
def rate_svrg_weighted(q: RateQuery) -> float | None:
    """Tail-weighted averaging rate for the corrected-gradient solver.

    lambda = [1/(1-(1-d)^(m-1))] * [(1-d)^m/(1-2*eta*L)
             + 2*mu*L*eta^2*(1-d)^(m-1)/(1-2*eta*L) + 2*eta*L/(1-2*eta*L)],
    d = mu*eta. Undefined (None) for eta >= 1/(2L). The guarantee behind
    the bound holds for eta < 1/(4L) only: in the band [1/(4L), 1/(2L))
    the formula is finite but bounds nothing.
    """
    eta, m, L, mu = q
    if eta >= 1.0 / (2.0 * L):
        return None
    den = 1.0 - 2.0 * eta * L
    d, etal = mu * eta, eta * L
    # both powers from one log1p, as _pow1m and _one_minus_pow1m form them
    log1m = math.log1p(-d)
    tail = (m - 1) * log1m
    # mu*L*eta^2 as the product of d and eta*L, each below 1 in the
    # formula's domain, so no intermediate leaves the floats first
    return (1.0 / -math.expm1(tail)
            * (math.exp(m * log1m) / den
               + 2.0 * d * etal * math.exp(tail) / den
               + 2.0 * eta * L / den))


@_bound("svrg_u")
def rate_svrg_uniform(q: RateQuery) -> float | None:
    """Uniform-averaging rate: 1/(mu*eta*(1-2*eta*L)*m) + 2*eta*L/(1-2*eta*L).
    Undefined for eta >= 1/(2L)."""
    eta, m, L, mu = q
    if eta >= 1.0 / (2.0 * L):
        return None
    den = 1.0 - 2.0 * eta * L
    return 1.0 / (mu * eta * den * m) + 2.0 * eta * L / den


def _sarah_weighted_normalizer(d: float, m: int) -> float:
    """c = m - 1/d + (1-d)^m/d = sum_{j=1}^{m-1} (1 - (1-d)^j), positive for
    every m >= 2 and d in (0, 1)."""
    if d * (m - 1) < 1e-3:
        # the closed form cancels catastrophically here; expanding each
        # (1-d)^j binomially and summing over j gives the alternating series
        # c = sum_{r>=1} (-1)^(r+1) C(m, r+1) d^r, whose terms shrink by
        # d*(m-r-1)/(r+2) < 1e-3 per step, so a few reach full precision;
        # the first, m*(m-1)*d/2, takes d in first, so that no product
        # leaves the floats at any m a query holds
        c, term = 0.0, m * d * (m - 1) / 2
        for r in range(1, m):
            if c + term == c:
                break
            c += term
            term *= -d * (m - r - 1) / (r + 2)
        return c
    return (m - 1) - (1.0 - d) * _one_minus_pow1m(d, m - 1) / d


@_bound("sarah_w")
def rate_sarah_weighted(q: RateQuery) -> float | None:
    """Tail-weighted averaging rate for the recursive-estimator solver
    (delta = mu*eta, c the weight normalizer):

    lambda = [(1-delta)^m - (1-2*eta*L/(1+kappa))^m] * (L+mu)/(c*(L-mu))
             + (1-delta)^m/(c*delta) + eta*L*(m-1)/(c*(2-eta*L))
             + (2-2*eta*L)/(2-eta*L) * (1+kappa)/(2*c*eta*L)

    Undefined for eta >= 1/L or L == mu.
    """
    eta, m, L, mu = q
    if eta >= 1.0 / L or L == mu:
        return None
    d = mu * eta
    kappa = L / mu
    r = 2.0 * eta * L / (1.0 + kappa)
    etal = eta * L
    # c > 0 for every d in (0, 1); it is 0 only when d underflowed
    c = _sarah_weighted_normalizer(d, m)
    decay = _pow1m(d, m)
    return ((decay - _pow1m(r, m)) * (L + mu) / (c * (L - mu))
            + decay / (c * d)
            + etal * (m - 1) / (c * (2.0 - etal))
            + (2.0 - 2.0 * etal) / (2.0 - etal) * (1.0 + kappa)
            / (2.0 * c * etal))


@_bound("sarah_u")
def rate_sarah_uniform(q: RateQuery) -> float | None:
    """Uniform-averaging rate: 1/(mu*eta*m) + eta*L/(2-eta*L).
    Undefined for eta >= 2/L."""
    eta, m, L, mu = q
    if eta >= 2.0 / L:
        return None
    return 1.0 / (mu * eta * m) + eta * L / (2.0 - eta * L)


@_bound("sarah_l")
def rate_sarah_last(q: RateQuery) -> float | None:
    """Last-iterate rate: 2*eta*L/(2-eta*L) + 2*(1+eta*L)*(1-2*eta*L/(1+kappa))^m.
    Defined for eta <= 2/(mu+L), the step range where the estimator-norm
    decay factor stays a contraction; eta*L rounds to 2 at that edge once
    kappa passes about 1e16."""
    eta, m, L, mu = q
    if eta > 2.0 / (mu + L):
        return None
    etal = eta * L
    r = 2.0 * etal / (1.0 + L / mu)
    # r = 1 only at mu = L with eta at the boundary; the power is then 0
    decay = 0.0 if r >= 1.0 else _pow1m(r, m)
    return 2.0 * etal / (2.0 - etal) + 2.0 * (1.0 + etal) * decay


class GridRow(NamedTuple):
    """One (scheme, sweep point) rate evaluation; value None = undefined."""

    scheme: str
    x: float
    value: float | None

    @property
    def defined(self) -> bool:
        return self.value is not None


# a grid builds its rows with tuple.__new__: the fields are known good, and
# it skips the Python-level __new__ the named tuple defines
_new_row = tuple.__new__


def rate_grid(schemes: Sequence[str], L: float, mu: float,
              sweep: str, points: Iterable[float],
              eta: float | None = None, m: int | None = None) -> list[GridRow]:
    """Evaluate rates over a 1-D sweep.

    Args:
        schemes: keys of SCHEME_RATES.
        L, mu: problem constants.
        sweep: "m" (points are inner lengths, whole numbers; fixed eta
            required) or "eta" (points are step sizes; fixed m required).
        points: sweep values, in emission order.
        eta, m: the non-swept coordinate; the swept one is refused.

    Returns:
        One GridRow per (scheme, point), grouped by scheme, its x and value
        Python floats, undefined points marked explicitly (value None).

    Raises:
        ValueError: no scheme, an unknown scheme, empty sweep, a missing
            fixed coordinate, the swept coordinate given as fixed, a NaN or
            infinite point, an m point that is not a whole number, or a
            point whose RateQuery is invalid.
    """
    points = list(points)
    if not points:
        raise ValueError("empty sweep")
    if not schemes:
        raise ValueError("no schemes to evaluate")
    for s in schemes:
        if s not in SCHEME_RATES:
            raise ValueError(f"unknown scheme {s!r}")
    if sweep not in ("m", "eta"):
        raise ValueError(f"sweep must be 'm' or 'eta', got {sweep!r}")
    fixed, swept, other = (eta, m, "eta") if sweep == "m" else (m, eta, "m")
    if fixed is None:
        raise ValueError(f"sweep over {sweep} needs a fixed {other}")
    if swept is not None:
        raise ValueError(f"sweep over {sweep} takes no fixed {sweep}")
    for x in points:
        if not -_INF < x < _INF:
            raise ValueError(f"{sweep} sweep point {x!r} is not finite")
        if sweep == "m" and int(x) != x:
            raise ValueError(f"m sweep point {x!r} is not a whole number")
    if sweep == "m":
        queries = [RateQuery(eta, int(x), L, mu) for x in points]
        xs = [float(x) for x in points]
    else:
        queries = [RateQuery(x, m, L, mu) for x in points]
        xs = [q.eta for q in queries]
    fns = [(scheme, SCHEME_RATES[scheme]) for scheme in schemes]
    return [_new_row(GridRow, (scheme, x, fn(q)))
            for scheme, fn in fns for x, q in zip(xs, queries)]


# Canonical figure grids (L = 1, mu = 1e-5 => kappa = 1e5 unless noted).
# The m grids are kappa multiples, matching how every experiment is
# parameterized and pinning the named checkpoints (5*kappa, 10*kappa)
# exactly.
#
# Grid 1a sweeps m for the corrected-gradient solver at eta = 0.1/L. The
# weighted bound only dominates the uniform one above m ~ 3.5*kappa (below
# that its 1/(1-(1-d)^(m-1)) prefactor blows up), so the canonical grid spans
# [5*kappa, 100*kappa]; the analytic crossover is real, not an artifact.
# Grid 1b sweeps m for the recursive solver at eta = 0.5/L over
# [kappa, 100*kappa]; its weighted/uniform crossover sits near 6*kappa, and
# dominance claims apply to the m >= 10*kappa tail.
# Grid 2 sweeps eta at m = 10*kappa for the three recursive-solver schemes.
# Grid 4b-analytic checks tune-free self-consistency: for each averaging
# scheme, sweep eta over the admissible secant-step interval
# [1/(theta_k*L), 1/(theta_k*mu)] (theta_k the scheme's least admissible
# scaling in averaging.SCHEMES) and evaluate at the adaptive inner length
# m(eta) = ceil(1/(mu*eta)), constants kappa = 1388, L = 1.

FIGURE_IDS = ("1a", "1b", "2", "4b-analytic")

_FIG1A_M_OVER_KAPPA = (5, 7, 10, 15, 20, 30, 50, 70, 100)
_FIG1B_M_OVER_KAPPA = (1, 1.5, 2, 3, 5, 7, 10, 15, 20, 30, 50, 70, 100)


def _log_grid(lo: float, hi: float, count: int) -> list[float]:
    """count points log-spaced over [lo, hi]: 10 ** (a + i*step) with
    a = log10(lo), the last point exactly 10 ** log10(hi)."""
    a, b = math.log10(lo), math.log10(hi)
    step = (b - a) / (count - 1)
    return [10.0 ** (i * step + a) for i in range(count - 1)] + [10.0 ** b]


def figure_grid(figure: str) -> list[GridRow]:
    """Rate rows for one of the canonical analytic figures (FIGURE_IDS)."""
    if figure == "1a":
        kappa = 1e5
        ms = [float(round(r * kappa)) for r in _FIG1A_M_OVER_KAPPA]
        return rate_grid(["svrg_w", "svrg_u"], L=1.0, mu=1e-5,
                         sweep="m", points=ms, eta=0.1)
    if figure == "1b":
        kappa = 1e5
        ms = [float(round(r * kappa)) for r in _FIG1B_M_OVER_KAPPA]
        return rate_grid(["sarah_w", "sarah_u"], L=1.0, mu=1e-5,
                         sweep="m", points=ms, eta=0.5)
    if figure == "2":
        kappa = 1e5
        etas = _log_grid(1e-3, 0.999, 25)
        return rate_grid(["sarah_w", "sarah_u", "sarah_l"], L=1.0, mu=1e-5,
                         sweep="eta", points=etas, m=int(10 * kappa))
    if figure == "4b-analytic":
        kappa = 1388.0
        big_l, mu = 1.0, 1.0 / kappa
        rows: list[GridRow] = []
        for letter in "wul":  # the figure's order
            _, theta_over_kappa, scheme = SCHEMES["sarah"][letter]
            theta, fn = theta_over_kappa * kappa, SCHEME_RATES[scheme]
            for eta in _log_grid(1.0 / (theta * big_l), 1.0 / (theta * mu), 25):
                q = RateQuery(eta, inner_length(1.0 / (mu * eta)), big_l, mu)
                rows.append(_new_row(GridRow, (scheme, eta, fn(q))))
        return rows
    raise ValueError(f"unknown figure {figure!r}; expected one of {FIGURE_IDS}")
