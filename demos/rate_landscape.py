"""
Analytic rate landscape
=======================

Every solver configuration in this package comes with a computable
per-outer-loop contraction factor. This script sweeps the closed-form
bounds over inner-loop length and step size, prints a few anchor values,
and writes the grids as CSV plus an SVG chart. No stochastic runs here;
everything is exact arithmetic.
"""
from pathlib import Path

from vropt import (RateQuery, figure_grid, rate_sarah_last,
                   rate_sarah_uniform, rate_sarah_weighted, rate_svrg_uniform,
                   rate_svrg_weighted, write_rate_csv)
from vropt.svgplot import write_line_plot

out_dir = Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

# A badly conditioned problem: L = 1, mu = 1e-5, so kappa = 1e5. The
# interesting regime is m a few multiples of kappa.
kappa = 1e5
q = RateQuery(eta=0.5, m=int(5 * kappa), L=1.0, mu=1e-5)
print("one anchor point, eta = 1/(2L), m = 5*kappa:")
print(f"  tail-weighted recursive bound  {rate_sarah_weighted(q):.4f}")
print(f"  uniform recursive bound        {rate_sarah_uniform(q):.4f}")
print(f"  last-iterate recursive bound   {rate_sarah_last(q):.4f}")

# The uniform corrected-estimator bound needs a much longer inner loop
# before it contracts at all; compare m = 2*kappa against m = 24*kappa + 1.
for mult, eta in ((2, 0.1), (24, 0.125)):
    q = RateQuery(eta=eta, m=int(mult * kappa) + 1, L=1.0, mu=1e-5)
    print(f"corrected uniform, eta={eta}, m={mult}*kappa: "
          f"{rate_svrg_uniform(q):.4f}   weighted: {rate_svrg_weighted(q)}")

# Canonical sweeps. Grid "1a" sweeps m for the corrected estimator at
# eta = 0.1/L; "1b" does the recursive estimator at eta = 0.5/L; "2" sweeps
# eta at m = 1e6. Undefined points (step outside the admissible range) come
# back with value None and defined=false in the CSV.
for figure in ("1a", "1b", "2"):
    rows = figure_grid(figure)
    write_rate_csv(rows, out_dir / f"rates_{figure}.csv")
    print(f"wrote {len(rows)} rows -> {out_dir / f'rates_{figure}.csv'}")

# Chart the m-sweeps: weighted vs uniform, one panel per estimator family.
series = []
for scheme in ("svrg_w", "svrg_u"):
    rows = [r for r in figure_grid("1a") if r.scheme == scheme and r.defined]
    series.append((scheme, [r.x / kappa for r in rows],
                   [r.value for r in rows]))
for scheme in ("sarah_w", "sarah_u"):
    rows = [r for r in figure_grid("1b") if r.scheme == scheme and r.defined]
    series.append((scheme, [r.x / kappa for r in rows],
                   [r.value for r in rows]))
write_line_plot(out_dir / "rate_landscape.svg", series,
                title="contraction bounds vs inner-loop length",
                xlabel="m / kappa", ylabel="lambda")
print(f"wrote {out_dir / 'rate_landscape.svg'}")
