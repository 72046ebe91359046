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
inner loop of run(), each estimator in its own loop. It works on the
problem's CSR rows and scalar loss derivative instead of calling
grad_component, and keeps each estimator's dense terms in a lazily scaled
form (svrg: x = a*z + b*h; sarah: eta*v = sigma*w, x = y - tau*w, with y
and w packed as the real and imaginary parts of one complex vector), so a
step touches only the picked row's columns: O(nnz(a_i)) work, and for
sarah one gather, one dot and one scatter. A loop of k steps is charged
2k IFO once, before it runs. The scalars are folded back into the vectors
when a or sigma leaves a safe range, and the end iterate is formed from
them at loop end.

One divergence rule holds for every stochastic loop, an inner loop or an
SGD epoch: its steps test nothing, and run() tests x.x of its end iterate
once. A loop that fails is run again from the generator state saved
before it, on the same picks and bits, testing x.x after every step, so
DivergenceError.steps counts its steps up to the first non-finite iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .averaging import (SCHEMES, AveragingScheme, decay_rate,
                        sample_snapshot_index, weights)
from .dataset import MAX_FLOATS
from .problems import ErmProblem, IfoCounter
from .rules import ConfigError, integer, positive, real
from .trace import Trace, TracePoint, config_id_flaw

__all__ = [
    "FixedStep", "BarzilaiBorweinStep", "FixedLength", "AdaptiveLength",
    "SolverConfig", "DivergenceError", "bb_step", "run",
]

# gd and sgd have their step rules built in; the variance-reduced solvers
# are the estimators that SCHEMES pairs with averaging schemes
ALGORITHMS = ("gd", "sgd", *SCHEMES)


class DivergenceError(RuntimeError):
    """Iterates became non-finite; carries the last norm and the step count,
    or the outer loop when what names a snapshot gradient or evaluation."""

    def __init__(self, iterate_norm: float, steps: int,
                 config_id: str | None = None, what: str | None = None):
        self.iterate_norm = iterate_norm
        self.steps = steps
        self.config_id = config_id
        where = f" in config {config_id!r}" if config_id else ""
        what = what or f"iterate norm {iterate_norm} after {steps} steps"
        super().__init__(f"divergence{where}: {what}")


def inner_length(x: float, rule: str = "inner length") -> int:
    """The inner length max(2, ceil(x)), or ConfigError naming "<rule> <x>"
    when x is not finite or when a snapshot pmf of m + 1 floats fits no
    array."""
    # a chained comparison is False for NaN; an int past the floats is finite
    if not -math.inf < x < math.inf:
        raise ConfigError(f"{rule} {x} is not finite")
    m = max(2, math.ceil(x))
    if m + 1 > MAX_FLOATS:
        raise ConfigError(f"{rule} {x} is too large: the snapshot pmf holds "
                          f"m_s + 1 floats, at most {MAX_FLOATS}")
    return m


@dataclass(frozen=True)
class FixedStep:
    eta: float

    def __post_init__(self):
        object.__setattr__(self, "eta", positive("step size", self.eta))


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
        object.__setattr__(self, "theta_kappa",
                           positive("theta_kappa", self.theta_kappa))
        if self.eta0 is not None:
            object.__setattr__(self, "eta0", positive("eta0", self.eta0))


@dataclass(frozen=True)
class FixedLength:
    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", integer("inner length", self.m, least=2))


@dataclass(frozen=True)
class AdaptiveLength:
    """Inner length coupled to the step: m_s = max(2, ceil(c / (mu * eta_s)))."""

    c: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "c", positive("c", self.c))


StepRule = FixedStep | BarzilaiBorweinStep
InnerLengthRule = FixedLength | AdaptiveLength


@dataclass(frozen=True)
class SolverConfig:
    """Everything one run needs besides the problem.

    Exactly one of outer_loops / ifo_budget may be left None; the run stops at
    whichever limit is hit first (budget checks happen between outer loops, so
    a run can overshoot the budget by at most one loop). GD and SGD have their
    step rules built in and reject step/inner/averaging settings.
    """

    algorithm: str  # one of ALGORITHMS
    step: StepRule | None = None
    inner: InnerLengthRule | None = None
    averaging: AveragingScheme | None = None
    outer_loops: int | None = None
    ifo_budget: int | None = None
    seed: int = 0
    name: str | None = None

    @property
    def config_id(self) -> str:
        return self.name if self.name is not None else self.algorithm


_EPS2 = float(np.finfo(np.float64).eps) ** 2


def bb_step(prev: tuple[np.ndarray, np.ndarray],
            cur: tuple[np.ndarray, np.ndarray], theta_kappa: float,
            constants: tuple[float, float]) -> float | None:
    """Barzilai-Borwein outer step from the secant pair of two snapshots.

    prev and cur are (snapshot, full gradient) of the previous and the
    current outer loop; dx and dg are their differences. Returns
    eta_s = ||dx||^2 / (theta_kappa * <dx, dg>), or None when the
    snapshots coincide to working precision, ||dx|| <= eps * ||x_cur||
    with eps the float64 machine epsilon (caller should reuse the previous
    step): such a displacement, and the sign of <dx, dg> with it, is the
    rounding noise of a converged run, not curvature. With the problem
    constants (L, mu), the result is asserted to lie inside
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
    big_l, mu = constants
    lo = 1.0 / (theta_kappa * big_l)
    hi = 1.0 / (theta_kappa * mu)
    tol = 1e-9
    if not (lo * (1.0 - tol) <= eta <= hi * (1.0 + tol)):
        raise AssertionError(
            f"BB step {eta} outside guaranteed interval [{lo}, {hi}]")
    return eta


def _diverged(x: np.ndarray, steps: int, config_id: str | None,
              what: str | None = None) -> DivergenceError:
    with np.errstate(over="ignore", invalid="ignore"):
        return DivergenceError(float(np.linalg.norm(x)), steps, config_id,
                               what)


def _finite(x: np.ndarray) -> bool:
    # any inf or NaN component makes x.x non-finite, and so does an overflow
    # of ||x||^2, which already makes every regularized objective non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        return math.isfinite(x.dot(x))


_DRAW_BLOCK = 4096


def _picks(rng: np.random.Generator, n: int, steps: int):
    """Component indices for `steps` single-sample steps, drawn in blocks of
    at most _DRAW_BLOCK: the same stream as one rng.integers(n) per step, in
    O(1) memory."""
    while steps > 0:
        k = min(steps, _DRAW_BLOCK)
        yield from rng.integers(n, size=k).tolist()
        steps -= k


def _sgd_epoch(problem: ErmProblem, x0: np.ndarray, eta: float,
               rng: np.random.Generator, counter: IfoCounter,
               config_id: str | None = None,
               checked: bool = False) -> np.ndarray:
    """n SGD steps x <- x - eta * grad f_i(x) from x0, one pick per step;
    returns the end iterate and leaves x0 untouched. With checked, the
    first non-finite iterate raises DivergenceError naming its step."""
    x = x0.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k, i in enumerate(_picks(rng, problem.n, problem.n), start=1):
            # in place: x -= eta * g's bits, one d-vector fewer
            g = problem.grad_component(i, x, counter)
            g *= eta
            x -= g
            if checked and not _finite(x):
                raise _diverged(x, k, config_id)
    return x


def _tested_loop(config_id: str, rng: np.random.Generator,
                 counter: IfoCounter, loop, *args) -> np.ndarray:
    """The end iterate of loop(*args, rng, counter), an inner loop or an SGD
    epoch, under the module's divergence rule; a replay charges nothing."""
    state = rng.bit_generator.state
    x = loop(*args, rng, counter)
    if not _finite(x):
        rng.bit_generator.state = state
        loop(*args, rng, IfoCounter(), config_id, checked=True)
        raise AssertionError(f"config {config_id!r}: a loop that ended "
                             "non-finite stayed finite when replayed")
    return x


# The lazy scale (a for svrg, sigma for sarah) is folded into the vectors
# once it leaves this range. The lower end bounds by how much sarah's
# cancellation in y - tau*w can amplify rounding, and also keeps a zero
# scale (eta*mu = 1) away from the division.
_SCALE_LO, _SCALE_HI = 1e-3, 1e3


def _fold(u: np.ndarray, v: np.ndarray, a: float, b: float, sig: float):
    """Fold the scalars of x = a*u + b*v into u, and sarah's displacement
    scale sig into v, in place, so that afterwards a = sig = 1 and b = 0.
    u and v may be strided views, sarah's real and imaginary parts."""
    u *= a
    u += b * v
    v *= sig


def _inner_steps(problem: ErmProblem, algorithm: str, x0: np.ndarray,
                 g: np.ndarray, eta: float, upto: int,
                 rng: np.random.Generator, counter: IfoCounter,
                 config_id: str | None = None,
                 checked: bool = False) -> np.ndarray:
    """Run one inner loop from snapshot x0 (full gradient g) to iterate
    x_upto and return it; x0 and g are left untouched.

    With f_i(x) = phi_i(<a_i, x>) + (mu/2)||x||^2 and s = 1 - eta*mu both
    estimators' dense terms are affine with scalar coefficients, so the
    kernel keeps them as scalars (the just-in-time update of sparse SAG,
    Schmidt, Le Roux and Bach, Math. Prog. 2017, section 4) and a step
    touches only the picked row's columns. Each estimator runs its own
    loop:

    * svrg: x_{k+1} = s*x_k - eta*h - eta*(phi_i'(a_i.x_k) - c0_i)*a_i with
      h = g - mu*x0 and c0 = phi'(A x0). The loop keeps x = a*z + b*h,
      so with A h computed once per loop (uncharged, like c0) the margin
      is a*(a_i.z) + b*(A h)_i, and a step does a <- s*a, b <- s*b - eta,
      z[cols] -= (eta*delta/a)*vals.
    * sarah: eta*v_k = s*eta*v_{k-1} + eta*dphi*a_i with
      dphi = phi_i'(a_i.x_k) - phi_i'(a_i.x_{k-1}), and x_{k+1} =
      x_k - eta*v_k. The loop keeps eta*v = sigma*w and x = y - tau*w,
      with y and w the real and imaginary parts of one complex vector
      y + i*w, so a step gathers the row's entries of both at once, takes
      both margins from one complex dot, and scatters both updates at
      once: sigma <- s*sigma, y + i*w += (tau + i)*D, tau += sigma with
      D = (eta*dphi/sigma)*vals. x_1 = x0 - eta*g is the free
      deterministic step, so upto >= 1 runs upto-1 recursive steps.

    Both forms are written x = a*u + b*v (svrg: u = z, v = h; sarah: a = 1,
    u = y, v = w, b = -tau). The scalars are folded back into the vectors,
    an O(d) pass, whenever a or sigma leaves [_SCALE_LO, _SCALE_HI], and
    the end iterate is a*u + b*v with the last scalars. Every stochastic
    step costs 2 IFO (two component gradients), charged once for the
    whole loop before it runs. Unchecked, no step is tested, and a
    non-finite margin reaches loss_deriv. With checked, each step
    (sarah's x_1 as step 1) forms a*u + b*v into a temporary, never
    folding, so it keeps the unchecked bits, and raises DivergenceError
    at the first iterate whose x.x is not finite.
    """
    if upto == 0:
        return x0.copy()
    indptr, indices, data = problem.indptr, problem.indices, problem.data
    deriv = problem.loss_deriv
    s = 1.0 - eta * problem.mu
    svrg = algorithm == "svrg"
    steps = upto if svrg else upto - 1
    counter.count += 2 * steps
    picks = _picks(rng, problem.n, steps)
    with np.errstate(over="ignore", invalid="ignore"):
        if svrg:
            c0 = problem.loss_derivs(x0).tolist()
            u, v = x0.copy(), g - problem.mu * x0
            ah = problem.margins(v).tolist()
            a, b = 1.0, 0.0
            for done, i in enumerate(picks, start=1):
                lo, hi = indptr[i], indptr[i + 1]
                cols, vals = indices[lo:hi], data[lo:hi]
                uc = u[cols]
                t = a * float(vals.dot(uc)) + b * ah[i]
                coef = -eta * (deriv(i, t) - c0[i])
                a *= s
                b = s * b - eta
                if not _SCALE_LO <= abs(a) <= _SCALE_HI:
                    _fold(u, v, a, b, 1.0)
                    a, b = 1.0, 0.0
                    uc = u[cols]
                uc += (coef / a) * vals
                u[cols] = uc
                if checked and not _finite(x := a * u + b * v):
                    raise _diverged(x, done, config_id)
            _fold(u, v, a, b, 1.0)
            return u
        z = np.empty(problem.d, np.complex128)
        y, w = z.real, z.imag
        np.multiply(eta, g, out=w)  # eta*v_0
        np.subtract(x0, w, out=y)  # x_1
        if checked and not _finite(y):
            raise _diverged(y, 1, config_id)
        b, sig = 0.0, 1.0
        for done, i in enumerate(picks, start=2):
            lo, hi = indptr[i], indptr[i + 1]
            # the row cast once, so that neither the dot nor the update
            # casts it again
            cols, row = indices[lo:hi], data[lo:hi].astype(np.complex128)
            zc = z[cols]
            tz = complex(row.dot(zc))  # a_i.y + i*a_i.w
            tv = tz.imag
            t = tz.real + b * tv
            coef = eta * (deriv(i, t) - deriv(i, t + sig * tv))
            sig *= s
            if not _SCALE_LO <= abs(sig) <= _SCALE_HI:
                _fold(y, w, 1.0, b, sig)
                b, sig = 0.0, 1.0
                zc = z[cols]
            coef /= sig
            # y += tau*D and w += D in one scatter
            row *= complex(-b * coef, coef)
            row += zc
            z[cols] = row
            b -= sig
            if checked and not _finite(x := y + b * w):
                raise _diverged(x, done, config_id)
        x = b * w
        x += y
    return x


def _validate(problem: ErmProblem, config: SolverConfig) -> None:
    if config.algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {config.algorithm!r}")
    flaw = config_id_flaw(config.config_id)
    if flaw:
        raise ConfigError(f"name {config.config_id!r} contains {flaw}")
    integer("seed", config.seed, least=0)
    if config.outer_loops is None and config.ifo_budget is None:
        raise ConfigError("set outer_loops, ifo_budget, or both")
    for field_name in ("outer_loops", "ifo_budget"):
        if getattr(config, field_name) is not None:
            integer(field_name, getattr(config, field_name), least=0)
    if config.algorithm not in SCHEMES:  # gd and sgd
        for field_name in ("step", "inner", "averaging"):
            if getattr(config, field_name) is not None:
                raise ConfigError(
                    f"{field_name} is not configurable for {config.algorithm} "
                    "(its rule is built in)")
        return
    if config.step is None or config.inner is None or config.averaging is None:
        raise ConfigError(
            f"{config.algorithm} needs step, inner, and averaging rules")
    own = [scheme for scheme, _, _ in SCHEMES[config.algorithm].values()]
    if config.averaging not in own:
        raise ConfigError(
            f"averaging {config.averaging.name} is not valid for "
            f"{config.algorithm}; choose one of {[a.name for a in own]}")
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
    bound, name = (mu, "mu") if isinstance(inner, AdaptiveLength) \
        else (big_l, "L")
    eta0 = 1.0 / (step.theta_kappa * bound)
    # a tiny or huge theta_kappa overflows the quotient or its divisor
    return positive(f"eta0 = 1/(theta_kappa*{name})", eta0)


def _inner_length(inner: InnerLengthRule, mu: float, eta: float) -> int:
    """m_s for a loop with step eta: fixed, or max(2, ceil(c/(mu*eta)))."""
    if isinstance(inner, FixedLength):
        return inner_length(inner.m)
    # a tiny eta overflows the quotient, or underflows mu*eta
    den = mu * eta
    return inner_length(inner.c / den if den > 0 else math.inf,
                        "adaptive inner length c/(mu*eta_s) =")


def check_config(problem: ErmProblem, config: SolverConfig) -> float | None:
    """Make every check of config that run() can make before its first
    outer loop, and return that loop's step (None for gd and sgd, whose
    steps are built in). run() calls this first; a caller may call it
    before it pays for a reference solve.

    Raises:
        ConfigError: what _validate rejects, an eta0 that is not positive
            and finite, an adaptive first inner length c/(mu*eta0) that is
            not finite, or a first inner length, fixed or adaptive, that
            has no array to hold its snapshot pmf.
        ValueError: a weighted scheme with mu*eta0 outside (0, 1).
    """
    _validate(problem, config)
    if config.algorithm not in SCHEMES:  # gd and sgd
        return None
    big_l, mu, _ = problem.constants()
    eta0 = config.step.eta if isinstance(config.step, FixedStep) \
        else _resolve_eta0(config.step, config.inner, big_l, mu)
    _inner_length(config.inner, mu, eta0)
    if config.averaging is SCHEMES[config.algorithm]["w"][0]:  # weighted
        decay_rate(mu, eta0)
    return eta0


def run(problem: ErmProblem, config: SolverConfig, f_star: float | None = None,
        evaluate: bool = True) -> Trace:
    """Run one solver configuration from x = 0 and return its trace.

    Outer loop s resolves eta_s (fixed, or BB once two snapshot gradients
    exist; the first two loops use eta0), resolves m_s (fixed, or
    ceil(c/(mu*eta_s))), draws the snapshot index, runs the inner loop, and
    records a TracePoint. GD takes one full-gradient step per loop with
    eta = 1/L; SGD runs one epoch of n single-sample steps per loop with the
    decaying step 0.05/(L*(epoch+1)). Each inner loop and epoch follows the
    module's divergence rule, so one whose x.x overflows and comes back
    into range before its end completes.

    Evaluation (gap needs f_star; grad_sq always) reads the snapshot without
    charging IFO or consuming RNG draws, so evaluate=False changes nothing
    about the iterate sequence.

    Raises:
        ConfigError: a configuration that check_config refuses, or an
            f_star that real refuses.
        DivergenceError: non-finite iterate, snapshot gradient or
            evaluation, annotated with the config id.
        MemoryError: a loop's snapshot pmf, naming the config, loop and m_s.
    """
    eta0 = check_config(problem, config)
    f_star = None if f_star is None else real("f_star", f_star)
    big_l, mu, _ = problem.constants()
    n = problem.n
    cid = config.config_id
    rng = np.random.default_rng(config.seed)
    counter = IfoCounter()
    x = np.zeros(problem.d)

    points = []

    def record(s: int, eta_s: float | None, m_s: int | None,
               snap: int | None) -> None:
        gap = grad_sq = None
        if evaluate:
            # uncharged, consumes no RNG; one margins pass for f and grad f
            with np.errstate(over="ignore", invalid="ignore"):
                value, g_eval = problem.value_and_grad(x)
                grad_sq = float(g_eval @ g_eval)
            if not math.isfinite(grad_sq) or \
                    (f_star is not None and not math.isfinite(value)):
                raise _diverged(x, s, cid, f"evaluation at outer loop {s} is "
                                f"not finite: f = {value}, grad_sq = {grad_sq}")
            if f_star is not None:
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
            if not _finite(x):
                raise _diverged(x, s, cid)
            record(s, eta_s, 1, 1)
            continue
        if config.algorithm == "sgd":
            eta_s = 0.05 / (big_l * s)  # epoch index n_e = s - 1
            x = _tested_loop(cid, rng, counter, _sgd_epoch, problem, x, eta_s)
            record(s, eta_s, n, n)
            continue

        # variance-reduced path: snapshot gradient first, since the BB
        # secant for loop s uses grad f at the two latest snapshots
        g = problem.full_grad(x, counter)
        if not _finite(g):
            raise _diverged(g, s, cid, f"snapshot gradient at outer loop {s} "
                            "is not finite")
        if isinstance(config.step, FixedStep) or s <= 2:
            eta_s = eta0
        else:
            eta_s = bb_step((x_prev, g_prev), (x, g),
                            config.step.theta_kappa, (big_l, mu))
            if eta_s is None:  # snapshot moved by rounding only; keep the step
                eta_s = eta_prev
        x_prev, g_prev, eta_prev = x, g, eta_s
        m_s = _inner_length(config.inner, mu, eta_s)
        try:
            pmf = weights(config.averaging, m_s, mu, eta_s)
        except MemoryError:
            raise MemoryError(f"config {cid!r}, outer loop {s}: no memory for "
                              f"the snapshot pmf of m_s = {m_s}") from None
        snap = sample_snapshot_index(pmf, rng)
        x = _tested_loop(cid, rng, counter, _inner_steps, problem,
                         config.algorithm, x, g, eta_s, snap)
        record(s, eta_s, m_s, snap)
    return Trace(cid, n, tuple(points))

