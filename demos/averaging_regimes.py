"""
Snapshot averaging and the step-size regime flip
================================================

The recursive-estimator solver restarts each outer loop from a snapshot
drawn from a probability distribution over the inner iterates. Which
distribution wins depends on the step size: with an aggressive step the
late inner iterates are noisy, so the tail-weighted scheme (mass on
earlier iterates) produces better snapshots; with a tiny step the last
iterate is simply the furthest along. This script runs both schemes at
both step sizes and prints the median final optimality gaps.
"""
import math
from pathlib import Path

import numpy as np

from vropt import (AveragingScheme, FixedLength, FixedStep, LogisticProblem,
                   SolverConfig, cached_reference, generate_synthetic,
                   normalize_rows, run, weights, write_trace_csv)

out_dir = Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

# Synthetic logistic regression. Normalizing rows pins the smoothness
# constant at 0.25 + mu, so mu = 0.25/(kappa - 1) gives condition number
# exactly kappa.
kappa = 100.0
dataset = normalize_rows(generate_synthetic(500, 10, seed=62, separation=3.0))
problem = LogisticProblem(dataset, 0.25 / (kappa - 1.0))
big_l, mu, _ = problem.constants()
f_star = cached_reference(problem).f_star
m = math.ceil(5 * kappa)
budget = 20 * problem.n

# First look at the snapshot distributions themselves for a short loop.
# Tail-weighted mass decreases with the iterate index; the last-iterate
# scheme is a point mass on index m - 1.
w = weights(AveragingScheme.WEIGHTED_SARAH, 6, mu, 0.9 / big_l)
print("tail-weighted pmf over snapshot indices 0..6 at m = 6:")
print("  ", np.array2string(w, precision=3))

schemes = {"tail-weighted": AveragingScheme.WEIGHTED_SARAH,
           "last-iterate": AveragingScheme.LAST_SARAH}

for eta_over_l in (0.9, 0.06):
    finals = {}
    for label, scheme in schemes.items():
        gaps = []
        for seed in range(10):
            config = SolverConfig("sarah",
                                  step=FixedStep(eta_over_l / big_l),
                                  inner=FixedLength(m), averaging=scheme,
                                  ifo_budget=budget, seed=seed,
                                  name=label.replace("-", "_"))
            trace = run(problem, config, f_star=f_star)
            gaps.append(trace.final.gap)
            if seed == 0:
                write_trace_csv(
                    [trace],
                    out_dir / f"avg_{label.replace('-', '_')}"
                              f"_eta{eta_over_l}.csv")
        finals[label] = float(np.median(gaps))
    winner = min(finals, key=finals.get)
    print(f"eta = {eta_over_l}/L, median final gap over 10 seeds:")
    for label, gap in finals.items():
        mark = "  <- wins" if label == winner else ""
        print(f"  {label:14s} {gap:.3e}{mark}")
