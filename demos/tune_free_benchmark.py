"""
Tune-free solvers under an equal oracle budget
==============================================

The secant-step solvers need no step size at all: each outer loop
estimates the local curvature from the two latest snapshot gradients,
sets eta_s from it, and then sizes its own inner loop as
ceil(c/(mu*eta_s)). Here they run head to head against hand-tuned
fixed-step baselines and decaying-step SGD, all charged against the
same budget of component-gradient evaluations.
"""
from pathlib import Path

from vropt import (LogisticProblem, bench_configs, cached_reference,
                   generate_synthetic, normalize_rows, run_experiment,
                   write_trace_csv)
from vropt.svgplot import write_line_plot

out_dir = Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

# A moderately conditioned synthetic problem; 40 sample passes of budget.
kappa = 200.0
dataset = normalize_rows(generate_synthetic(1000, 15, seed=21, separation=3.0))
problem = LogisticProblem(dataset, 0.25 / (kappa - 1.0))
ref = cached_reference(problem)
print(f"n={problem.n} d={problem.d} kappa={problem.kappa:.0f} "
      f"f_star={ref.f_star:.6f}")

# The standard five-config lineup: SGD, fixed-step uniform-averaging
# baselines for both estimators, and the two tune-free secant solvers.
configs = bench_configs(problem, seed=0)
traces = run_experiment(problem, configs, passes=40.0, f_star=ref.f_star)
write_trace_csv(traces, out_dir / "benchmark.csv")

print(f"{'config':>12s} {'loops':>5s} {'final gap':>12s} {'grad_sq':>12s}")
for trace in traces:
    final = trace.final
    print(f"{trace.config_id:>12s} {final.s:>5d} {final.gap:>12.3e} "
          f"{final.grad_sq:>12.3e}")

# The secant solver adapts both knobs per loop; show the trajectory.
bb = next(t for t in traces if t.config_id == "bb_sarah_w")
print("\ntune-free recursive solver, per-loop schedule:")
print("  s   eta_s      m_s   steps taken")
for p in bb.points[1:]:
    print(f"  {p.s:<3d} {p.eta_s:<10.4g} {p.m_s:<5d} {p.snapshot_index}")

series = [(t.config_id,
           [t.sample_passes(p) for p in t.points if p.grad_sq],
           [p.grad_sq for p in t.points if p.grad_sq])
          for t in traces]
write_line_plot(out_dir / "benchmark.svg", series,
                title="equal-budget comparison, 40 sample passes",
                xlabel="sample passes", ylabel="squared gradient norm")
print(f"\nwrote {out_dir / 'benchmark.csv'} and {out_dir / 'benchmark.svg'}")
