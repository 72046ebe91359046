"""Stochastic and deterministic solvers: GD, SGD, SVRG, SARAH, with fixed or
Barzilai-Borwein (BB) outer step sizes and fixed or adaptive inner-loop length.

Work accounting is in IFO units (one component gradient = 1): every snapshot
(full) gradient costs n, every stochastic inner step costs exactly 2. Trace
evaluations cost nothing.

RNG discipline: each run consumes a single numpy Generator stream in a fixed
documented order: per outer loop, first ONE uniform draw for the snapshot
index M^s (inverse CDF), then one integer draw per inner step. SGD draws one
integer per step. The per-step integers are drawn in blocks of at most 4096
(rng.integers(n, size=k)), which yields exactly the stream of one scalar
draw per step. Identical config + seed therefore reproduces the iterate
sequence bit for bit.

One kernel, _inner_steps, runs every corrected (svrg) and recursive (sarah)
inner loop, for run() as well as for svrg_inner and sarah_inner. It works on
the problem's CSR rows and scalar loss derivative instead of calling
grad_component, so a step costs one or two sparse dot products and a few
dense vector updates while still being charged 2 IFO. Every step, in the
kernel and in SGD, ends with a finiteness check (x.x finite), so a
DivergenceError names the first step whose iterate left the floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .averaging import AveragingScheme, sample_snapshot_index, weights
from .problems import ErmProblem, IfoCounter
from .trace import Trace, TracePoint

__all__ = [
    "FixedStep", "BarzilaiBorweinStep", "FixedLength", "AdaptiveLength",
    "SolverConfig", "ConfigError", "DivergenceError",
    "InnerResult", "svrg_inner", "sarah_inner", "bb_step", "run",
    "default_theta_kappa",
]


class ConfigError(ValueError):
    """Contradictory or incomplete solver configuration."""


class DivergenceError(RuntimeError):
    """Iterates became non-finite; carries the last norm and the step count."""

    def __init__(self, iterate_norm: float, steps: int, config_id: str | None = None):
        self.iterate_norm = iterate_norm
        self.steps = steps
        self.config_id = config_id
        where = f" in config {config_id!r}" if config_id else ""
        super().__init__(
            f"divergence{where}: iterate norm {iterate_norm} after {steps} steps")


@dataclass(frozen=True)
class FixedStep:
    eta: float

    def __post_init__(self):
        if not self.eta > 0:
            raise ConfigError(f"step size must be positive, got {self.eta}")


@dataclass(frozen=True)
class BarzilaiBorweinStep:
    """Secant-based outer step: eta_s = ||dx||^2 / (theta_kappa * <dx, dg>).

    The first two outer loops have no secant pair and use eta0. When eta0 is
    None it defaults to the lower admissible bound 1/(theta_kappa * L), except
    in tune-free mode (adaptive inner length) where it defaults to the upper
    bound 1/(theta_kappa * mu): the adaptive rule m = ceil(1/(mu * eta)) would
    otherwise start with an inner loop of length ~theta_kappa * kappa, larger
    than any reasonable budget.
    """

    theta_kappa: float
    eta0: float | None = None

    def __post_init__(self):
        if not self.theta_kappa > 0:
            raise ConfigError(f"theta_kappa must be positive, got {self.theta_kappa}")
        if self.eta0 is not None and not self.eta0 > 0:
            raise ConfigError(f"eta0 must be positive, got {self.eta0}")


@dataclass(frozen=True)
class FixedLength:
    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ConfigError(f"inner length must be >= 2, got {self.m}")


@dataclass(frozen=True)
class AdaptiveLength:
    """Inner length coupled to the step: m_s = max(2, ceil(c / (mu * eta_s)))."""

    c: float = 1.0

    def __post_init__(self):
        if not self.c > 0:
            raise ConfigError(f"c must be positive, got {self.c}")


StepRule = FixedStep | BarzilaiBorweinStep
InnerLengthRule = FixedLength | AdaptiveLength

_SCHEMES = {
    "svrg": (AveragingScheme.UNIFORM, AveragingScheme.LAST_SVRG,
             AveragingScheme.WEIGHTED_SVRG),
    "sarah": (AveragingScheme.UNIFORM, AveragingScheme.LAST_SARAH,
              AveragingScheme.WEIGHTED_SARAH),
}


def default_theta_kappa(algorithm: str, averaging: AveragingScheme,
                        kappa: float) -> float:
    """Smallest admissible BB scaling per scheme: 4*kappa for SVRG, kappa for
    SARAH with uniform/weighted averaging, 1.5*kappa for SARAH last-iterate."""
    if algorithm == "svrg":
        return 4.0 * kappa
    if averaging is AveragingScheme.LAST_SARAH:
        return 1.5 * kappa
    return kappa


@dataclass(frozen=True)
class SolverConfig:
    """Everything one run needs besides the problem.

    Exactly one of outer_loops / ifo_budget may be left None; the run stops at
    whichever limit is hit first (budget checks happen between outer loops, so
    a run can overshoot the budget by at most one loop). GD and SGD have their
    step rules built in and reject step/inner/averaging settings.
    """

    algorithm: str  # "gd" | "sgd" | "svrg" | "sarah"
    step: StepRule | None = None
    inner: InnerLengthRule | None = None
    averaging: AveragingScheme | None = None
    outer_loops: int | None = None
    ifo_budget: int | None = None
    seed: int = 0
    name: str | None = None
    x0: np.ndarray | None = None

    @property
    def config_id(self) -> str:
        return self.name if self.name is not None else self.algorithm


@dataclass(frozen=True)
class InnerResult:
    x_next: np.ndarray
    snapshot_grad: np.ndarray
    snapshot_index: int  # the sampled M^s


_EPS2 = float(np.finfo(np.float64).eps) ** 2


def bb_step(prev: tuple[np.ndarray, np.ndarray],
            cur: tuple[np.ndarray, np.ndarray], theta_kappa: float,
            constants: tuple[float, float] | None = None) -> float | None:
    """Barzilai-Borwein outer step from the secant pair of two snapshots.

    prev and cur are (snapshot, full gradient) of the previous and the
    current outer loop; dx and dg are their differences. Returns
    eta_s = ||dx||^2 / (theta_kappa * <dx, dg>), or None when the
    snapshots coincide to working precision, ||dx|| <= eps * ||x_cur||
    with eps the float64 machine epsilon (caller should reuse the previous
    step): such a displacement, and the sign of <dx, dg> with it, is the
    rounding noise of a converged run, not curvature. When problem constants
    (L, mu) are given, the result is asserted to lie inside
    [1/(theta_kappa*L), 1/(theta_kappa*mu)], which strong convexity and
    smoothness guarantee.

    Raises:
        ValueError: a non-positive secant product (impossible for a strongly
            convex objective with finite state).
    """
    (x_prev, g_prev), (x_cur, g_cur) = prev, cur
    dx = x_cur - x_prev
    sq = float(dx @ dx)
    if sq <= _EPS2 * float(x_cur @ x_cur):
        return None
    dg = g_cur - g_prev
    den = float(dx @ dg)
    if not den > 0.0:
        raise ValueError(
            f"secant product <dx, dg> = {den} is not positive; "
            "strong convexity is violated (non-finite state or a bug)")
    eta = sq / (theta_kappa * den)
    if constants is not None:
        big_l, mu = constants
        lo = 1.0 / (theta_kappa * big_l)
        hi = 1.0 / (theta_kappa * mu)
        tol = 1e-9
        if not (lo * (1.0 - tol) <= eta <= hi * (1.0 + tol)):
            raise AssertionError(
                f"BB step {eta} outside guaranteed interval [{lo}, {hi}]")
    return eta


def _diverged(x: np.ndarray, steps: int,
              config_id: str | None) -> DivergenceError:
    with np.errstate(over="ignore", invalid="ignore"):
        return DivergenceError(float(np.linalg.norm(x)), steps, config_id)


def _check_finite(x: np.ndarray, steps: int, config_id: str | None) -> None:
    # any inf or NaN component makes x.x non-finite, and so does an overflow
    # of ||x||^2, which already makes every regularized objective non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        finite = math.isfinite(x.dot(x))
    if not finite:
        raise _diverged(x, steps, config_id)


def _resolve_scheme(algorithm: str, averaging: AveragingScheme) -> None:
    allowed = _SCHEMES[algorithm]
    if averaging not in allowed:
        raise ConfigError(
            f"averaging {averaging.name} is not valid for {algorithm}; "
            f"choose one of {[a.name for a in allowed]}")


_DRAW_BLOCK = 4096


def _picks(rng: np.random.Generator, n: int, steps: int):
    """Component indices for `steps` single-sample steps, drawn in blocks of
    at most _DRAW_BLOCK: the same stream as one rng.integers(n) per step, in
    O(1) memory."""
    while steps > 0:
        k = min(steps, _DRAW_BLOCK)
        yield from rng.integers(n, size=k).tolist()
        steps -= k


def _inner_steps(problem: ErmProblem, algorithm: str, x0: np.ndarray,
                 g: np.ndarray, eta: float, upto: int,
                 rng: np.random.Generator, counter: IfoCounter,
                 config_id: str | None = None) -> np.ndarray:
    """Run one inner loop from snapshot x0 (full gradient g) to iterate
    x_upto and return it; x0 and g are left untouched.

    With f_i(x) = phi_i(<a_i, x>) + (mu/2)||x||^2 both estimators reduce to
    O(nnz(a_i)) sparse work plus O(d) dense vector updates per step:

    * svrg: x_{k+1} = (1 - eta*mu)*x_k - eta*(g - mu*x0)
      - eta*(phi_i'(a_i.x_k) - c0_i)*a_i, with c0 = phi'(A x0) computed once
      per snapshot, so each step takes one sparse dot product;
    * sarah: v_k = (1 - eta*mu)*v_{k-1} + dphi*a_i with
      dphi = phi_i'(a_i.x_k) - phi_i'(a_i.x_{k-1}), where
      a_i.x_{k-1} = a_i.(x_k + eta*v_{k-1}) needs only the row's columns;
      the kernel keeps eta*v_k, the displacement x_k - x_{k+1}. x_1 =
      x0 - eta*g is the free deterministic step, so upto >= 1 runs upto-1
      recursive steps.

    Every stochastic step is charged 2 IFO (two component gradients) and is
    followed by a finiteness check, so DivergenceError.steps counts the
    steps up to and including the first non-finite iterate.
    """
    indptr, indices, data = problem.indptr, problem.indices, problem.data
    deriv = problem.loss_deriv
    shrink = 1.0 - eta * problem.mu
    svrg = algorithm == "svrg"
    x = x0.copy()
    if svrg:
        first = 1
        c0 = problem.loss_derivs(x0).tolist()
        drift = eta * (g - problem.mu * x0)
    elif upto == 0:
        return x
    else:
        first = 2
        step = eta * g  # eta * v_k, the displacement x_k - x_{k+1}
        x -= step
        _check_finite(x, 1, config_id)
    with np.errstate(over="ignore", invalid="ignore"):
        for done, i in enumerate(_picks(rng, problem.n, upto - first + 1),
                                 start=first):
            counter.count += 2
            lo, hi = indptr[i], indptr[i + 1]
            cols, vals = indices[lo:hi], data[lo:hi]
            t = float(vals.dot(x[cols]))
            if svrg:
                x *= shrink
                x -= drift
                x[cols] -= (eta * (deriv(i, t) - c0[i])) * vals
            else:
                t_prev = t + float(vals.dot(step[cols]))
                step *= shrink
                step[cols] += (eta * (deriv(i, t) - deriv(i, t_prev))) * vals
                x -= step
            if not math.isfinite(x.dot(x)):
                raise _diverged(x, done, config_id)
    return x


def _one_loop(algorithm: str, problem: ErmProblem, x0: np.ndarray, eta: float,
              m: int, averaging: AveragingScheme, rng: np.random.Generator,
              counter: IfoCounter) -> InnerResult:
    _resolve_scheme(algorithm, averaging)
    g = problem.full_grad(x0, counter)
    w = weights(averaging, m, problem.mu, eta)
    snap = sample_snapshot_index(w, rng)
    x = _inner_steps(problem, algorithm, x0, g, eta, snap, rng, counter)
    return InnerResult(x, g, snap)


def svrg_inner(problem: ErmProblem, x0: np.ndarray, eta: float, m: int,
               averaging: AveragingScheme, rng: np.random.Generator,
               counter: IfoCounter) -> InnerResult:
    """One corrected-gradient outer loop with lazy snapshot selection.

    Computes the anchor gradient g = grad f(x0) (n IFO), draws the snapshot
    index M from the averaging pmf over {0..m}, runs exactly M inner updates
    x <- x - eta * (grad f_i(x) - grad f_i(x0) + g) (2 IFO each), and returns
    x_M with g and M. Deterministic given the generator state.

    Raises:
        DivergenceError: a non-finite iterate appeared.
    """
    return _one_loop("svrg", problem, x0, eta, m, averaging, rng, counter)


def sarah_inner(problem: ErmProblem, x0: np.ndarray, eta: float, m: int,
                averaging: AveragingScheme, rng: np.random.Generator,
                counter: IfoCounter) -> InnerResult:
    """One recursive-estimator outer loop with lazy snapshot selection.

    v_0 = grad f(x0) (n IFO) and x_1 = x0 - eta*v_0 cost no extra IFO; each
    recursive update v <- v + grad f_i(x_k) - grad f_i(x_{k-1}) costs 2. With
    sampled index M, the loop runs max(M-1, 0) recursive updates and returns
    x_M.

    Raises:
        DivergenceError: a non-finite iterate appeared.
    """
    return _one_loop("sarah", problem, x0, eta, m, averaging, rng, counter)


def _validate(problem: ErmProblem, config: SolverConfig) -> None:
    if config.algorithm not in ("gd", "sgd", "svrg", "sarah"):
        raise ConfigError(f"unknown algorithm {config.algorithm!r}")
    if config.outer_loops is None and config.ifo_budget is None:
        raise ConfigError("set outer_loops, ifo_budget, or both")
    if config.outer_loops is not None and config.outer_loops < 0:
        raise ConfigError(f"outer_loops must be >= 0, got {config.outer_loops}")
    if config.ifo_budget is not None and config.ifo_budget < 0:
        raise ConfigError(f"ifo_budget must be >= 0, got {config.ifo_budget}")
    if config.x0 is not None and np.asarray(config.x0).shape != (problem.d,):
        raise ConfigError(f"x0 must have shape ({problem.d},)")
    if config.algorithm in ("gd", "sgd"):
        for field_name in ("step", "inner", "averaging"):
            if getattr(config, field_name) is not None:
                raise ConfigError(
                    f"{field_name} is not configurable for {config.algorithm} "
                    "(its rule is built in)")
        return
    if config.step is None or config.inner is None or config.averaging is None:
        raise ConfigError(
            f"{config.algorithm} needs step, inner, and averaging rules")
    _resolve_scheme(config.algorithm, config.averaging)
    if problem.mu <= 0:
        raise ConfigError("variance-reduced solvers require mu > 0")
    if isinstance(config.inner, AdaptiveLength) and \
            not isinstance(config.step, BarzilaiBorweinStep):
        raise ConfigError("adaptive inner length requires the BB step rule "
                          "(it is derived from eta_s)")


def _resolve_eta0(step: BarzilaiBorweinStep, inner: InnerLengthRule,
                  big_l: float, mu: float) -> float:
    if step.eta0 is not None:
        return step.eta0
    if isinstance(inner, AdaptiveLength):
        return 1.0 / (step.theta_kappa * mu)
    return 1.0 / (step.theta_kappa * big_l)


def run(problem: ErmProblem, config: SolverConfig, f_star: float | None = None,
        evaluate: bool = True) -> Trace:
    """Run one solver configuration and return its trace.

    Outer loop s resolves eta_s (fixed, or BB once two snapshot gradients
    exist; the first two loops use eta0), resolves m_s (fixed, or
    ceil(c/(mu*eta_s))), draws the snapshot index, runs the inner loop, and
    records a TracePoint. GD takes one full-gradient step per loop with
    eta = 1/L; SGD runs one epoch of n single-sample steps per loop with the
    decaying step 0.05/(L*(epoch+1)).

    Evaluation (gap needs f_star; grad_sq always) reads the snapshot without
    charging IFO or consuming RNG draws, so evaluate=False changes nothing
    about the iterate sequence.

    Raises:
        ConfigError: contradictory configuration for this problem.
        DivergenceError: non-finite iterate, annotated with the config id.
    """
    _validate(problem, config)
    big_l, mu, _ = problem.constants()
    n = problem.n
    cid = config.config_id
    rng = np.random.default_rng(config.seed)
    counter = IfoCounter()
    x = np.zeros(problem.d) if config.x0 is None \
        else np.asarray(config.x0, dtype=np.float64).copy()

    points = []

    def record(s: int, eta_s: float | None, m_s: int | None,
               snap: int | None) -> None:
        gap = grad_sq = None
        if evaluate:
            g_eval = problem.full_grad(x)  # uncharged, consumes no RNG
            with np.errstate(over="ignore", invalid="ignore"):
                grad_sq = float(g_eval @ g_eval)
                value = problem.value(x) if f_star is not None else None
            if not math.isfinite(grad_sq) or \
                    (value is not None and not math.isfinite(value)):
                raise _diverged(x, s, cid)
            if value is not None:
                gap = value - f_star
        points.append(TracePoint(s, eta_s, m_s, snap, counter.count, gap, grad_sq))

    record(0, None, None, None)
    # the previous loop's snapshot and full gradient, for the BB secant
    x_prev = g_prev = None
    eta_prev: float | None = None
    s = 0
    while True:
        if config.outer_loops is not None and s >= config.outer_loops:
            break
        if config.ifo_budget is not None and counter.count >= config.ifo_budget:
            break
        s += 1
        if config.algorithm == "gd":
            eta_s = 1.0 / big_l
            x = x - eta_s * problem.full_grad(x, counter)
            _check_finite(x, s, cid)
            record(s, eta_s, 1, 1)
            continue
        if config.algorithm == "sgd":
            eta_s = 0.05 / (big_l * s)  # epoch index n_e = s - 1
            with np.errstate(over="ignore", invalid="ignore"):
                for k, i in enumerate(_picks(rng, n, n), start=1):
                    x -= eta_s * problem.grad_component(i, x, counter)
                    if not math.isfinite(x.dot(x)):
                        raise _diverged(x, k, cid)
            record(s, eta_s, n, n)
            continue

        # variance-reduced path: snapshot gradient first, since the BB
        # secant for loop s uses grad f at the two latest snapshots
        g = problem.full_grad(x, counter)
        _check_finite(g, s, cid)
        if isinstance(config.step, FixedStep):
            eta_s = config.step.eta
        elif s <= 2:
            eta_s = _resolve_eta0(config.step, config.inner, big_l, mu)
        else:
            eta_s = bb_step((x_prev, g_prev), (x, g),
                            config.step.theta_kappa, (big_l, mu))
            if eta_s is None:  # snapshot moved by rounding only; keep the step
                eta_s = eta_prev
        x_prev, g_prev, eta_prev = x, g, eta_s
        if isinstance(config.inner, FixedLength):
            m_s = config.inner.m
        else:
            m_s = max(2, math.ceil(config.inner.c / (mu * eta_s)))
        w = weights(config.averaging, m_s, mu, eta_s)
        snap = sample_snapshot_index(w, rng)
        x = _inner_steps(problem, config.algorithm, x, g, eta_s, snap,
                         rng, counter, cid)
        record(s, eta_s, m_s, snap)
    return Trace(cid, n, tuple(points))

