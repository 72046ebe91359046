"""Closed-form per-outer-loop convergence-rate calculators lambda(eta, m, L, mu)
for every solver/averaging pair, plus sweep grids that reproduce the analytic
comparison figures.

Each calculator returns the contraction factor of its tracked metric (function
gap for the corrected-gradient solver, squared gradient norm for the recursive
one) or None where the formula's preconditions fail; callers render such
points as gaps, never as silent NaNs. The formulas are upper bounds: measured
contraction may be much smaller, never meaningfully larger.

Powers (1-delta)^m are evaluated as exp(m*log1p(-delta)); the weighted-
recursive normalizer switches to its binomial series in delta when
delta*(m-1) < 1e-3, where the closed form loses accuracy to cancellation.
The series converges in a few terms there, so every calculator takes O(1)
time and memory whatever m is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "RateQuery", "GridRow",
    "rate_svrg_weighted", "rate_svrg_uniform",
    "rate_sarah_weighted", "rate_sarah_uniform", "rate_sarah_last",
    "svrg_weighted_within_guarantee",
    "SCHEME_RATES", "rate_grid", "figure_grid", "FIGURE_IDS",
]


@dataclass(frozen=True)
class RateQuery:
    """One rate evaluation point. kappa is always derived as L/mu."""

    eta: float
    m: int
    L: float = 1.0
    mu: float = 1e-5

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.m < 2:
            raise ValueError(f"m must be >= 2, got {self.m}")
        if not self.mu > 0 or self.L < self.mu:
            raise ValueError(f"need L >= mu > 0, got L={self.L}, mu={self.mu}")

    @property
    def kappa(self) -> float:
        return self.L / self.mu


def _pow1m(delta: float, exponent: float) -> float:
    """(1 - delta)^exponent without precision loss at tiny delta."""
    return math.exp(exponent * math.log1p(-delta))


def _one_minus_pow1m(delta: float, exponent: float) -> float:
    """1 - (1 - delta)^exponent, accurate when the power is near 1."""
    return -math.expm1(exponent * math.log1p(-delta))


def rate_svrg_weighted(q: RateQuery) -> float | None:
    """Tail-weighted averaging rate for the corrected-gradient solver.

    lambda = [1/(1-(1-d)^(m-1))] * [(1-d)^m/(1-2*eta*L)
             + 2*mu*L*eta^2*(1-d)^(m-1)/(1-2*eta*L) + 2*eta*L/(1-2*eta*L)],
    d = mu*eta. Undefined (None) for eta >= 1/(2L).
    """
    if q.eta >= 1.0 / (2.0 * q.L):
        return None
    d = q.mu * q.eta
    den = 1.0 - 2.0 * q.eta * q.L
    prefactor = 1.0 / _one_minus_pow1m(d, q.m - 1)
    bracket = (_pow1m(d, q.m) / den
               + 2.0 * q.mu * q.L * q.eta ** 2 * _pow1m(d, q.m - 1) / den
               + 2.0 * q.eta * q.L / den)
    return prefactor * bracket


def svrg_weighted_within_guarantee(q: RateQuery) -> bool:
    """The weighted-averaging guarantee holds for eta < 1/(4L); the formula
    itself is finite up to 1/(2L). False flags the (1/(4L), 1/(2L)) band."""
    return q.eta < 1.0 / (4.0 * q.L)


def rate_svrg_uniform(q: RateQuery) -> float | None:
    """Uniform-averaging rate: 1/(mu*eta*(1-2*eta*L)*m) + 2*eta*L/(1-2*eta*L).
    Undefined for eta >= 1/(2L)."""
    if q.eta >= 1.0 / (2.0 * q.L):
        return None
    den = 1.0 - 2.0 * q.eta * q.L
    return 1.0 / (q.mu * q.eta * den * q.m) + 2.0 * q.eta * q.L / den


def _sarah_weighted_normalizer(d: float, m: int) -> float:
    """c = m - 1/d + (1-d)^m/d = sum_{j=1}^{m-1} (1 - (1-d)^j), positive for
    every m >= 2 and d in (0, 1)."""
    if d * (m - 1) < 1e-3:
        # the closed form cancels catastrophically here; expanding each
        # (1-d)^j binomially and summing over j gives the alternating series
        # c = sum_{r>=1} (-1)^(r+1) C(m, r+1) d^r, whose terms shrink by
        # d*(m-r-1)/(r+2) < 1e-3 per step, so a few reach full precision
        c, term = 0.0, m * (m - 1) / 2 * d
        for r in range(1, m):
            if c + term == c:
                break
            c += term
            term *= -d * (m - r - 1) / (r + 2)
        return c
    return (m - 1) - (1.0 - d) * _one_minus_pow1m(d, m - 1) / d


def rate_sarah_weighted(q: RateQuery) -> float | None:
    """Tail-weighted averaging rate for the recursive-estimator solver
    (delta = mu*eta, c the weight normalizer):

    lambda = [(1-delta)^m - (1-2*eta*L/(1+kappa))^m] * (L+mu)/(c*(L-mu))
             + (1-delta)^m/(c*delta) + eta*L*(m-1)/(c*(2-eta*L))
             + (2-2*eta*L)/(2-eta*L) * (1+kappa)/(2*c*eta*L)

    Undefined for eta >= 1/L, L == mu, or a non-positive normalizer.
    """
    if q.eta >= 1.0 / q.L or q.L == q.mu:
        return None
    d = q.mu * q.eta
    c = _sarah_weighted_normalizer(d, q.m)
    if not c > 0.0:
        return None
    kappa = q.kappa
    r = 2.0 * q.eta * q.L / (1.0 + kappa)
    etal = q.eta * q.L
    term1 = (_pow1m(d, q.m) - _pow1m(r, q.m)) * (q.L + q.mu) / (c * (q.L - q.mu))
    term2 = _pow1m(d, q.m) / (c * d)
    term3 = etal * (q.m - 1) / (c * (2.0 - etal))
    term4 = (2.0 - 2.0 * etal) / (2.0 - etal) * (1.0 + kappa) / (2.0 * c * etal)
    return term1 + term2 + term3 + term4


def rate_sarah_uniform(q: RateQuery) -> float | None:
    """Uniform-averaging rate: 1/(mu*eta*m) + eta*L/(2-eta*L).
    Undefined for eta >= 2/L."""
    if q.eta >= 2.0 / q.L:
        return None
    return 1.0 / (q.mu * q.eta * q.m) + q.eta * q.L / (2.0 - q.eta * q.L)


def rate_sarah_last(q: RateQuery) -> float | None:
    """Last-iterate rate: 2*eta*L/(2-eta*L) + 2*(1+eta*L)*(1-2*eta*L/(1+kappa))^m.
    Defined for eta <= 2/(mu+L), the step range where the estimator-norm
    decay factor stays a contraction."""
    if q.eta > 2.0 / (q.mu + q.L):
        return None
    etal = q.eta * q.L
    r = 2.0 * etal / (1.0 + q.kappa)
    # r = 1 only at mu = L with eta at the boundary; the power is then 0
    decay = 0.0 if r >= 1.0 else _pow1m(r, q.m)
    return 2.0 * etal / (2.0 - etal) + 2.0 * (1.0 + etal) * decay


SCHEME_RATES: dict[str, Callable[[RateQuery], float | None]] = {
    "svrg_w": rate_svrg_weighted,
    "svrg_u": rate_svrg_uniform,
    "sarah_w": rate_sarah_weighted,
    "sarah_u": rate_sarah_uniform,
    "sarah_l": rate_sarah_last,
}


@dataclass(frozen=True)
class GridRow:
    """One (scheme, sweep point) rate evaluation; value None = undefined."""

    scheme: str
    x: float
    value: float | None

    @property
    def defined(self) -> bool:
        return self.value is not None


def rate_grid(schemes: Sequence[str], L: float, mu: float,
              sweep: str, points: Iterable[float],
              eta: float | None = None, m: int | None = None) -> list[GridRow]:
    """Evaluate rates over a 1-D sweep.

    Args:
        schemes: keys of SCHEME_RATES.
        L, mu: problem constants.
        sweep: "m" (points are inner lengths; fixed eta required) or
            "eta" (points are step sizes; fixed m required).
        points: sweep values, in emission order.
        eta, m: the non-swept coordinate.

    Returns:
        One GridRow per (scheme, point), grouped by scheme, undefined points
        marked explicitly.

    Raises:
        ValueError: unknown scheme, empty sweep, or a missing fixed coordinate.
    """
    points = list(points)
    if not points:
        raise ValueError("empty sweep")
    for s in schemes:
        if s not in SCHEME_RATES:
            raise ValueError(f"unknown scheme {s!r}")
    rows: list[GridRow] = []
    for scheme in schemes:
        fn = SCHEME_RATES[scheme]
        for x in points:
            if sweep == "m":
                if eta is None:
                    raise ValueError("sweep over m needs a fixed eta")
                q = RateQuery(eta=eta, m=int(round(x)), L=L, mu=mu)
            elif sweep == "eta":
                if m is None:
                    raise ValueError("sweep over eta needs a fixed m")
                q = RateQuery(eta=float(x), m=m, L=L, mu=mu)
            else:
                raise ValueError(f"sweep must be 'm' or 'eta', got {sweep!r}")
            rows.append(GridRow(scheme, float(x), fn(q)))
    return rows


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
# [1/(theta_k*L), 1/(theta_k*mu)] (theta_k = kappa for uniform/weighted,
# 1.5*kappa for last-iterate) and evaluate at the adaptive inner length
# m(eta) = ceil(1/(mu*eta)), constants kappa = 1388, L = 1.

FIGURE_IDS = ("1a", "1b", "2", "4b-analytic")

_FIG1A_M_OVER_KAPPA = (5, 7, 10, 15, 20, 30, 50, 70, 100)
_FIG1B_M_OVER_KAPPA = (1, 1.5, 2, 3, 5, 7, 10, 15, 20, 30, 50, 70, 100)


def _log_grid(lo: float, hi: float, count: int) -> list[float]:
    return [float(v) for v in np.logspace(math.log10(lo), math.log10(hi), count)]


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
        for scheme, theta in (("sarah_w", kappa), ("sarah_u", kappa),
                              ("sarah_l", 1.5 * kappa)):
            for eta in _log_grid(1.0 / (theta * big_l), 1.0 / (theta * mu), 25):
                m = max(2, math.ceil(1.0 / (mu * eta)))
                q = RateQuery(eta=eta, m=m, L=big_l, mu=mu)
                rows.append(GridRow(scheme, eta, SCHEME_RATES[scheme](q)))
        return rows
    raise ValueError(f"unknown figure {figure!r}; expected one of {FIGURE_IDS}")
