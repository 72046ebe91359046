"""Snapshot-averaging schemes: probability weights over the m+1 inner iterates
and the lazy snapshot-index sampler.

Instead of forming a weighted average of inner iterates, the next snapshot is
DRAWN: sample an index M from the scheme's pmf over {0..m} first, run only M
inner steps, and return iterate x_M. The five schemes:

    UNIFORM         p_m = 0, p_k = 1/m otherwise (either solver)
    LAST_SVRG       point mass on x_m
    LAST_SARAH      point mass on x_{m-1}
    WEIGHTED_SVRG   p_0 = p_m = 0, p_k proportional to (1-mu*eta)^(m-k-1)
    WEIGHTED_SARAH  p_k proportional to 1-(1-mu*eta)^(m-k-1) for k <= m-2

A draw holds one pmf of m+1 floats and one chunk of its running sums:
`weights` fills its result in place, and `sample_snapshot_index` draws its
uniform first, then inverts the CDF (Devroye, Non-Uniform Random Variate
Generation, 1986, ch. 2) in one forward pass over the pmf, summing one chunk
of `_CHUNK` entries at a time.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = ["AveragingScheme", "weights", "sample_snapshot_index"]

# entries of the pmf whose running sums the sampler holds at once
_CHUNK = 1 << 14


class AveragingScheme(enum.Enum):
    LAST_SVRG = "last_svrg"
    LAST_SARAH = "last_sarah"
    UNIFORM = "uniform"
    WEIGHTED_SVRG = "weighted_svrg"
    WEIGHTED_SARAH = "weighted_sarah"


# The estimator x averaging pairs (arXiv 1908.09345), by the same --avg
# letters u, w, l for each estimator: the scheme, its least admissible secant
# scaling theta over kappa, and its rates.SCHEME_RATES key (None: no bound).
SCHEMES = {
    "svrg": {"u": (AveragingScheme.UNIFORM, 4.0, "svrg_u"),
             "w": (AveragingScheme.WEIGHTED_SVRG, 4.0, "svrg_w"),
             "l": (AveragingScheme.LAST_SVRG, 4.0, None)},
    "sarah": {"u": (AveragingScheme.UNIFORM, 1.0, "sarah_u"),
              "w": (AveragingScheme.WEIGHTED_SARAH, 1.0, "sarah_w"),
              "l": (AveragingScheme.LAST_SARAH, 1.5, "sarah_l")},
}


def decay_rate(mu: float, eta: float) -> float:
    """delta = mu*eta, whose 1 - delta is the weighted schemes' decay
    factor. Raises ValueError unless 0 < delta < 1."""
    delta = mu * eta
    if not 0.0 < delta < 1.0:
        raise ValueError(f"weighted schemes need 0 < mu*eta < 1, "
                         f"got mu*eta = {delta}")
    return delta


def weights(scheme: AveragingScheme, m: int, mu: float | None = None,
            eta: float | None = None) -> np.ndarray:
    """Build the pmf p over iterates 0..m for one inner loop, as a
    read-only float64 array of length m+1. Each weight is computed in its
    slot of p, so building p holds no other array of its length.

    Args:
        scheme: which averaging rule.
        m: inner-loop length, >= 2.
        mu, eta: strong-convexity modulus and step size; required by the
            weighted schemes (their decay factor is 1 - mu*eta).

    Raises:
        ValueError: m < 2; or a weighted scheme with mu*eta outside (0, 1);
            or a degenerate WEIGHTED_SARAH normalizer (m too small for the
            given mu*eta).
    """
    if m < 2:
        raise ValueError(f"inner length m must be >= 2, got {m}")
    p = np.zeros(m + 1)
    if scheme is AveragingScheme.UNIFORM:
        p[:m] = 1.0 / m
    elif scheme is AveragingScheme.LAST_SVRG:
        p[m] = 1.0
    elif scheme is AveragingScheme.LAST_SARAH:
        p[m - 1] = 1.0
    else:
        if mu is None or eta is None:
            raise ValueError(f"{scheme.name} weights need mu and eta")
        delta = decay_rate(mu, eta)
        # the powers of 1-delta are accumulated in place on a reversed view
        # of the support, by iterative multiplication, so the normalizers
        # below, computed as sums, stay consistent with the terms
        if scheme is AveragingScheme.WEIGHTED_SVRG:
            # p_k ~ (1-delta)^(m-k-1), k = 1..m-1; exponent m-k-1 runs m-2..0
            tail = p[1:m]
            rev = tail[::-1]
            rev[0] = 1.0  # (1-delta)^0
            _powers(rev[1:], 1.0 - delta)
            q = float(tail.sum())  # equals (1-(1-delta)^(m-1))/delta exactly
            np.divide(tail, q, out=tail)
        elif scheme is AveragingScheme.WEIGHTED_SARAH:
            # p_k ~ 1-(1-delta)^(m-k-1), k = 0..m-2; exponent runs m-1..1
            head = p[:m - 1]
            _powers(head[::-1], 1.0 - delta)
            np.subtract(1.0, head, out=head)
            c = float(head.sum())  # equals m - 1/delta + (1-delta)^m/delta
            if not np.isfinite(c) or c <= 0.0:
                raise ValueError(
                    f"degenerate weighted normalizer c = {c} at m = {m}, "
                    f"mu*eta = {delta}; m is too small for these constants")
            np.divide(head, c, out=head)
        else:
            raise ValueError(f"unknown scheme {scheme}")
    p.setflags(write=False)
    return p


def _powers(out: np.ndarray, r: float) -> None:
    """Set out[j] = r^(j+1), each the previous one times r, in place."""
    out.fill(r)
    np.cumprod(out, out=out)


def sample_snapshot_index(w: np.ndarray, rng: np.random.Generator) -> int:
    """Draw M in {0..m} with P[M = k] = w[k], for a pmf w over 0..m.

    Consumes exactly one uniform draw u and returns the first index whose
    running sum np.cumsum(w)[k] exceeds u (inverse CDF), so a run's RNG
    stream advances by one per outer loop regardless of m. A draw at or
    past the total, which floating summation can leave slightly below 1,
    takes the last index with positive weight. Deterministic given the
    generator state.

    u is drawn first. One forward pass then takes the running sums one
    chunk of `_CHUNK` entries at a time, each chunk's cumsum seeded with
    the previous chunk's last sum, so they are np.cumsum(w)'s values while
    one chunk of them is held, and the index comes from the first chunk
    whose last sum exceeds u. The total is checked after that one draw.

    Raises:
        ValueError: w is not a nonempty 1-D array, has a negative weight, or
            does not sum to 1 within 1e-9.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weights must be a nonempty 1-D array")
    if w.min() < 0.0:
        raise ValueError("weights must be nonnegative")
    u = rng.random()
    index = None
    total = 0.0  # np.cumsum(w) at the last index summed so far
    buf = np.empty(min(w.size, _CHUNK))
    for lo in range(0, w.size, _CHUNK):
        cum = buf[:min(w.size - lo, _CHUNK)]
        cum[:] = w[lo:lo + cum.size]
        cum[0] += total
        np.add.accumulate(cum, out=cum)
        if index is None and cum[-1] > u:
            # below the total, cum[idx] > cum[idx-1], so w[idx] > 0
            index = lo + int(np.searchsorted(cum, u, side="right"))
        total = float(cum[-1])
    if not abs(total - 1.0) <= 1e-9:  # also rejects NaN
        raise ValueError(f"weights sum to {total}, expected 1")
    if index is not None:
        return index
    # at or past the total: the last index with positive weight, sought one
    # chunk at a time from the end
    for hi in range(w.size, 0, -_CHUNK):
        lo = max(hi - _CHUNK, 0)
        positive = np.flatnonzero(w[lo:hi])
        if positive.size:
            return lo + int(positive[-1])
    raise AssertionError("weights that sum to 1 have a positive entry")
