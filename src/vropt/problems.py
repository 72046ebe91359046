"""Finite-sum objectives f(x) = (1/n) sum_i f_i(x) with smoothness and
strong-convexity constants.

Every problem is a linear model over CSR rows, f_i(x) = phi_i(<a_i, x>) +
(mu/2)||x||^2. ErmProblem holds the rows a_i (indptr, indices, data), the
per-component targets and mu, and implements every oracle once; a subclass
supplies only its share of L (a bound on phi_i'' * ||a_i||^2, to which L
adds mu), phi_i' for one component (loss_deriv), and phi_i and phi_i' for
all margins t = A x at once (_losses, _derivs). The instance vropt ships is
L2-regularized logistic regression on a sparse Dataset. Component gradients
optionally charge a caller-owned IfoCounter: one unit per component
gradient, n units per full gradient. Evaluation code passes no counter, so
measurement never pollutes the work accounting. The solvers' fused inner
loop reads the CSR rows and loss_deriv directly.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from .dataset import Dataset
from .rules import nonnegative

__all__ = ["IfoCounter", "ErmProblem", "LogisticProblem"]


class IfoCounter:
    """Mutable incremental-first-order-oracle tally (1 per component gradient);
    callers charge k units with counter.count += k."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def __repr__(self):
        return f"IfoCounter({self.count})"


# stored entries per pass of _accumulate: few enough that its temporaries
# stay in cache, enough that its Python loop costs nothing
_CHUNK = 1 << 14


def _accumulate(out: np.ndarray, dest: np.ndarray, src: np.ndarray,
                pick: np.ndarray, data: np.ndarray) -> np.ndarray:
    """out[dest[k]] += data[k] * src[pick[k]] for every stored entry k, in
    storage order, so each output is the sequential sum a CSR product
    forms; returns out. Like a compiled CSR product, it does not warn on
    entries that overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(data), _CHUNK):
            w = src[pick[lo:lo + _CHUNK]]
            w *= data[lo:lo + _CHUNK]
            np.add.at(out, dest[lo:lo + _CHUNK], w)
    return out


class ErmProblem(abc.ABC):
    """Finite-sum linear model: n components over R^d, mu-strongly convex
    with L-Lipschitz component gradients (kappa = L/mu).

    Components are f_i(x) = phi_i(<a_i, x>) + (mu/2)||x||^2. Row a_i is
    data[indptr[i]:indptr[i+1]] at columns indices[indptr[i]:indptr[i+1]];
    indptr is a Python list so that slicing it costs no numpy scalar, and
    indices are np.intp, the index type numpy gathers and scatters fastest.
    rows gives the row of each stored entry; the all-component products sum
    over it. Every array is used in place, not copied. L = curvature + mu.
    """

    kind: str  # short tag naming the loss in cache keys

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray, rows: np.ndarray, d: int,
                 targets: np.ndarray, mu: float, curvature: float):
        self.mu = nonnegative("mu", mu)
        self._L = curvature + self.mu
        if not math.isfinite(self._L):
            raise ValueError(f"smoothness L = {self._L} is not finite "
                             "(a squared row norm or mu is past the float "
                             "range)")
        self.n = len(indptr) - 1
        self.d = int(d)
        self.indptr = indptr.tolist()
        self.indices, self.data, self._rows = indices, data, rows
        self.targets = targets

    @property
    def smoothness(self) -> float:
        """The uniform component-gradient Lipschitz constant L."""
        return self._L

    @property
    def kappa(self) -> float:
        return self.smoothness / self.mu if self.mu > 0 else math.inf

    def constants(self) -> tuple[float, float, float]:
        """(L, mu, kappa) with kappa recomputed as L/mu."""
        return self.smoothness, self.mu, self.kappa

    def _check_x(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.d,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.d},)")
        return x

    @abc.abstractmethod
    def loss_deriv(self, i: int, t: float) -> float:
        """phi_i'(t) at margin t = <a_i, x>; no checks, no charge."""

    @abc.abstractmethod
    def _losses(self, t: np.ndarray) -> np.ndarray:
        """phi_i(t_i) for every i, given all margins t = A x."""

    @abc.abstractmethod
    def _derivs(self, t: np.ndarray) -> np.ndarray:
        """phi_i'(t_i) for every i, given all margins t = A x."""

    def value(self, x: np.ndarray) -> float:
        """f(x) = (1/n) sum_i f_i(x)."""
        x = self._check_x(x)
        return self._value(x, self.margins(x))

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(f(x), grad f(x)) from one pass over the margins, the same bits
        as value and full_grad give; no charge."""
        x = self._check_x(x)
        t = self.margins(x)
        return self._value(x, t), self._grad(x, t)

    def _value(self, x: np.ndarray, t: np.ndarray) -> float:
        return float(np.mean(self._losses(t))) + 0.5 * self.mu * float(x @ x)

    def _grad(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        coeff = self._derivs(t) / self.n
        return _accumulate(np.zeros(self.d), self.indices, coeff, self._rows,
                           self.data) + self.mu * x

    def grad_component(self, i: int, x: np.ndarray,
                       counter: IfoCounter | None = None) -> np.ndarray:
        """grad f_i(x); charges 1 IFO to counter when one is supplied."""
        if not 0 <= i < self.n:
            raise IndexError(f"component index {i} out of range [0, {self.n})")
        x = self._check_x(x)
        if counter is not None:
            counter.count += 1
        lo, hi = self.indptr[i], self.indptr[i + 1]
        cols, vals = self.indices[lo:hi], self.data[lo:hi]
        g = self.mu * x
        g[cols] += self.loss_deriv(i, float(vals.dot(x[cols]))) * vals
        return g

    def margins(self, x: np.ndarray) -> np.ndarray:
        """<a_i, x> for every i; no charge."""
        x = self._check_x(x)
        return _accumulate(np.zeros(self.n), self._rows, x, self.indices,
                           self.data)

    def loss_derivs(self, x: np.ndarray) -> np.ndarray:
        """phi_i'(<a_i, x>) for every i, the vector full_grad is built on;
        no charge."""
        return self._derivs(self.margins(x))

    def full_grad(self, x: np.ndarray,
                  counter: IfoCounter | None = None) -> np.ndarray:
        """grad f(x); charges n IFO to counter when one is supplied."""
        x = self._check_x(x)
        if counter is not None:
            counter.count += self.n
        return self._grad(x, self.margins(x))


class LogisticProblem(ErmProblem):
    """Regularized logistic regression on a sparse dataset.

    f_i(x) = log(1 + exp(-b_i <a_i, x>)) + (mu/2) ||x||^2, b_i in {-1, +1}.
    L = max_i ||a_i||^2 / 4 + mu (the logistic curvature bound), and every
    component is mu-strongly convex by construction. The rows and labels are
    the dataset's own read-only arrays, not copies.

    Args:
        dataset: rows and labels.
        mu: regularization weight, finite and >= 0 (solvers need > 0).
    """

    kind = "logistic"

    def __init__(self, dataset: Dataset, mu: float):
        self.dataset = dataset
        self._b = dataset.labels.astype(np.float64).tolist()
        super().__init__(dataset.indptr, dataset.indices, dataset.data,
                         dataset.rows, dataset.dim, dataset.labels, mu,
                         float(np.max(dataset.row_sq_norms) / 4.0))

    def loss_deriv(self, i: int, t: float) -> float:
        # -b * sigmoid(-b*t), branching on the sign of -b*t so that exp
        # never sees a large positive argument
        b = self._b[i]
        u = -b * t
        if u >= 0.0:
            return -b * (1.0 / (1.0 + math.exp(-u)))
        e = math.exp(u)
        return -b * (e / (1.0 + e))

    def _losses(self, t: np.ndarray) -> np.ndarray:
        return np.logaddexp(0.0, -self.targets * t)

    def _derivs(self, t: np.ndarray) -> np.ndarray:
        b = self.targets
        # exp(b t) overflows to inf only where the limit is -b*0, a signed
        # zero (-0.0 for b = +1, +0.0 for b = -1), which -b/inf gives
        with np.errstate(over="ignore"):
            return -b / (1.0 + np.exp(b * t))
