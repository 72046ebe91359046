"""Variance-reduced stochastic optimization with snapshot averaging.

Corrected-gradient (svrg) and recursive-estimator (sarah) inner loops,
uniform / tail-weighted / last-iterate snapshot averaging with lazy inner
truncation, secant-based adaptive steps with safeguards, closed-form
per-loop rate calculators, and an equal-IFO-budget benchmark harness with
CSV and SVG emission.
"""

from .averaging import AveragingScheme, sample_snapshot_index, weights
from .dataset import (Dataset, LibsvmParseError, add_bias_column,
                      generate_synthetic, normalize_rows, parse_libsvm,
                      serialize_libsvm, write_libsvm)
from .harness import (RATE_HEADER, TRACE_HEADER, ReferenceOptimum,
                      bench_configs, cached_dataset, cached_reference,
                      compute_reference, format_rate_csv, format_trace_csv,
                      load_trace_csv, problem_key, run_experiment,
                      write_rate_csv, write_trace_csv)
from .problems import ErmProblem, IfoCounter, LogisticProblem
from .rates import (FIGURE_IDS, GridRow, RateQuery, figure_grid, rate_grid,
                    rate_sarah_last, rate_sarah_uniform, rate_sarah_weighted,
                    rate_svrg_uniform, rate_svrg_weighted)
from .solvers import (AdaptiveLength, BarzilaiBorweinStep, ConfigError,
                      DivergenceError, FixedLength, FixedStep, SolverConfig,
                      bb_step, run)
from .trace import Trace, TracePoint

__version__ = "0.1.0"

__all__ = [
    "AveragingScheme", "weights", "sample_snapshot_index",
    "Dataset", "LibsvmParseError", "parse_libsvm",
    "serialize_libsvm", "write_libsvm", "generate_synthetic",
    "normalize_rows", "add_bias_column",
    "ErmProblem", "IfoCounter", "LogisticProblem",
    "RateQuery", "GridRow", "FIGURE_IDS", "rate_svrg_weighted",
    "rate_svrg_uniform", "rate_sarah_weighted", "rate_sarah_uniform",
    "rate_sarah_last", "rate_grid", "figure_grid",
    "SolverConfig", "FixedStep", "BarzilaiBorweinStep", "FixedLength",
    "AdaptiveLength", "ConfigError", "DivergenceError", "bb_step", "run",
    "Trace", "TracePoint",
    "ReferenceOptimum", "compute_reference", "cached_reference",
    "cached_dataset", "problem_key", "run_experiment", "bench_configs",
    "format_trace_csv", "write_trace_csv", "load_trace_csv",
    "format_rate_csv", "write_rate_csv",
    "TRACE_HEADER", "RATE_HEADER",
    "__version__",
]
