import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import vropt.cli
from vropt import (AdaptiveLength, AveragingScheme, BarzilaiBorweinStep,
                   FixedLength, FixedStep, LogisticProblem, SolverConfig,
                   add_bias_column, bench_configs, cached_reference,
                   compute_reference, format_trace_csv, generate_synthetic,
                   load_trace_csv, normalize_rows, parse_libsvm, problem_key,
                   run_experiment)
from vropt.cli import main
from vropt.solvers import check_config


def gen_data(tmp_path, n=30, d=4, seed=1, sep=3.0):
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "data.libsvm"
    assert main(["gen", "--n", str(n), "--d", str(d), "--seed", str(seed),
                 "--sep", str(sep), "--out", str(path)]) == 0
    return str(path)


def run_flags(data, out, *extra):
    return ["run", "--data", data, "--mu", "0.05", "--normalize",
            "--out", str(out), *extra]


# ----------------------------------------------------------------- gen

def test_gen_deterministic_bytes(tmp_path):
    a = gen_data(tmp_path / "a", n=25, d=3, seed=7)
    b = gen_data(tmp_path / "b", n=25, d=3, seed=7)
    c = gen_data(tmp_path / "c", n=25, d=3, seed=8)
    assert Path(a).read_bytes() == Path(b).read_bytes()
    assert Path(a).read_bytes() != Path(c).read_bytes()


def test_gen_invalid_size_exits_2(tmp_path, capsys):
    assert main(["gen", "--n", "1", "--d", "3",
                 "--out", str(tmp_path / "x.libsvm")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--sep=nan", "--sep=inf", "--sep=-inf"])
def test_gen_nonfinite_separation_exits_2(tmp_path, capsys, flag):
    out = tmp_path / "x.libsvm"
    assert main(["gen", "--n", "3", "--d", "2", flag, "--out", str(out)]) == 2
    value = float(flag.partition("=")[2])
    assert capsys.readouterr().err == \
        f"error: separation must be finite, got {value!r}\n"
    assert not out.exists()


def test_gen_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "x.libsvm"
    assert main(["gen", "--n", "3", "--d", "2", "--seed", "-1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_gen_unwritable_path_exits_1(tmp_path):
    assert main(["gen", "--n", "5", "--d", "2",
                 "--out", str(tmp_path / "missing-dir" / "x.libsvm")]) == 1


# ----------------------------------------------------------------- run

def test_run_fixed_svrg_writes_trace(tmp_path, capsys):
    data = gen_data(tmp_path)
    out = tmp_path / "trace.csv"
    assert main(run_flags(data, out, "--algo", "svrg", "--step", "fixed",
                          "--eta-over-L", "0.25", "--m", "40",
                          "--passes", "10")) == 0
    trace, = load_trace_csv(out.read_text(encoding="utf-8"))
    assert trace.config_id == "svrg"
    ifos = [p.ifo_total for p in trace.points]
    assert ifos[0] == 0 and all(b > a for a, b in zip(ifos, ifos[1:]))
    assert all(p.gap is not None for p in trace.points)  # reference solved
    assert trace.final.ifo_total >= 10 * trace.n
    assert "outer loops" in capsys.readouterr().out


def test_run_no_reference_leaves_gap_empty(tmp_path):
    data = gen_data(tmp_path)
    out = tmp_path / "trace.csv"
    assert main(run_flags(data, out, "--algo", "sarah", "--step", "fixed",
                          "--eta-over-L", "0.5", "--m-kappa", "2",
                          "--passes", "6", "--no-reference",
                          "--name", "probe")) == 0
    trace, = load_trace_csv(out.read_text(encoding="utf-8"))
    assert trace.config_id == "probe"
    assert all(p.gap is None for p in trace.points)
    assert all(p.grad_sq is not None for p in trace.points)


def test_run_sgd_schedule_in_csv(tmp_path):
    data = gen_data(tmp_path)
    out = tmp_path / "trace.csv"
    assert main(run_flags(data, out, "--algo", "sgd", "--passes", "4")) == 0
    trace, = load_trace_csv(out.read_text(encoding="utf-8"))
    etas = [p.eta_s for p in trace.points[1:]]
    assert all(b < a for a, b in zip(etas, etas[1:]))  # decaying schedule
    assert etas[0] == pytest.approx(2.0 * etas[1])
    assert all(p.m_s == trace.n for p in trace.points[1:])


def test_run_seed_defaults_to_0(tmp_path):
    data = gen_data(tmp_path)
    given, default = tmp_path / "given.csv", tmp_path / "default.csv"
    for out, seed in ((given, ["--seed", "0"]), (default, [])):
        assert main(run_flags(data, out, "--algo", "sgd", "--passes", "2",
                              "--no-reference", *seed)) == 0
    assert default.read_bytes() == given.read_bytes()


def test_run_bias_appends_a_constant_feature(tmp_path, capsys):
    data = gen_data(tmp_path)
    capsys.readouterr()  # drop gen's report
    out = tmp_path / "trace.csv"
    assert main(run_flags(data, out, "--algo", "gd", "--passes", "3",
                          "--bias")) == 0
    # the bias column is appended after the rows are normalized
    ds = normalize_rows(parse_libsvm(Path(data).read_text(encoding="utf-8")))
    problem = LogisticProblem(add_bias_column(ds), 0.05)
    assert problem.d == 5
    trace, = run_experiment(problem, [SolverConfig("gd")], 3.0,
                            compute_reference(problem).f_star)
    assert out.read_text(encoding="utf-8") == format_trace_csv([trace])
    assert capsys.readouterr().out == \
        f"gd: 3 outer loops, 3.0 passes, grad_sq={trace.final.grad_sq!r}\n"


def test_run_bb_with_fixed_inner_length(tmp_path, capsys):
    data = gen_data(tmp_path)
    capsys.readouterr()  # drop gen's report
    out = tmp_path / "trace.csv"
    assert main(run_flags(data, out, "--algo", "svrg", "--step", "bb",
                          "--m", "7", "--passes", "8",
                          "--no-reference")) == 0
    trace, = load_trace_csv(out.read_text(encoding="utf-8"))
    assert trace.final.s >= 3  # secant updates engaged
    assert all(p.m_s == 7 for p in trace.points[1:])
    assert len({p.eta_s for p in trace.points[1:]}) > 1
    assert capsys.readouterr().out == (
        f"svrg: {trace.final.s} outer loops, "
        f"{trace.sample_passes(trace.final)!r} passes, "
        f"grad_sq={trace.final.grad_sq!r}\n")


def test_run_bb_defaults_to_weighted(tmp_path):
    data = gen_data(tmp_path)
    out = tmp_path / "trace.csv"
    assert main(run_flags(data, out, "--algo", "sarah", "--step", "bb",
                          "--passes", "8")) == 0
    trace, = load_trace_csv(out.read_text(encoding="utf-8"))
    assert trace.final.s >= 3  # secant updates engaged
    assert all(p.m_s >= 2 for p in trace.points[1:])


@pytest.mark.parametrize("flags,message", [
    (["--algo", "gd", "--m", "5"], "--algo gd takes none of: --m"),
    # gd draws no random numbers
    (["--algo", "gd", "--seed", "3"], "--algo gd takes none of: --seed"),
    (["--algo", "gd", "--m", "5", "--seed", "0"],
     "--algo gd takes none of: --m, --seed"),
    (["--algo", "sgd", "--step", "fixed"], "--algo sgd takes none of: --step"),
    (["--algo", "sgd", "--step", "fixed", "--c", "2"],
     "--algo sgd takes none of: --step, --c"),
    (["--algo", "svrg"], "--algo svrg needs --step fixed or --step bb"),
    (["--algo", "svrg", "--step", "fixed", "--m", "40"],
     "--step fixed needs --eta-over-L"),
    (["--algo", "svrg", "--step", "fixed", "--eta-over-L", "0.2"],
     "--step fixed needs --m or --m-kappa"),
    (["--algo", "svrg", "--step", "fixed", "--eta-over-L", "0.2",
      "--m", "40", "--theta-kappa", "4"],
     "--step fixed takes none of: --theta-kappa"),
    (["--algo", "svrg", "--step", "fixed", "--eta-over-L", "0.2",
      "--m", "40", "--theta-kappa", "4", "--c", "2"],
     "--step fixed takes none of: --theta-kappa, --c"),
    (["--algo", "sarah", "--step", "bb", "--eta-over-L", "0.5"],
     "--step bb takes --eta0-over-L, not --eta-over-L"),
    (["--algo", "sarah", "--step", "fixed", "--eta-over-L", "0.5",
      "--m", "10", "--m-kappa", "2"], "give --m or --m-kappa, not both"),
    (["--algo", "sarah", "--step", "bb", "--m", "10", "--c", "2.0"],
     "--c sets the adaptive length; drop --m/--m-kappa"),
])
def test_run_flag_rejection(tmp_path, capsys, flags, message):
    data = gen_data(tmp_path)
    out = tmp_path / "t.csv"
    assert main(run_flags(data, out, *flags)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    assert not list((tmp_path / "refcache").glob("ref-*"))


@pytest.mark.parametrize("flags,message", [
    # each step or length flag is checked as typed, before it is scaled
    (["--algo", "sarah", "--step", "bb", "--c", "inf"],
     "error: --c must be positive and finite, got inf"),
    (["--algo", "sarah", "--step", "bb", "--c", "nan"],
     "error: --c must be positive and finite, got nan"),
    (["--algo", "sarah", "--step", "bb", "--c", "-1"],
     "error: --c must be positive and finite, got -1.0"),
    (["--algo", "sarah", "--step", "bb", "--theta-kappa", "inf"],
     "error: --theta-kappa must be positive and finite, got inf"),
    (["--algo", "sarah", "--step", "bb", "--theta-kappa", "-1"],
     "error: --theta-kappa must be positive and finite, got -1.0"),
    (["--algo", "sarah", "--step", "bb", "--eta0-over-L", "inf"],
     "error: --eta0-over-L must be positive and finite, got inf"),
    (["--algo", "sarah", "--step", "bb", "--eta0-over-L", "-1"],
     "error: --eta0-over-L must be positive and finite, got -1.0"),
    (["--algo", "svrg", "--step", "fixed", "--eta-over-L", "inf",
      "--m", "10"],
     "error: --eta-over-L must be positive and finite, got inf"),
    (["--algo", "svrg", "--step", "fixed", "--eta-over-L", "-1",
      "--m", "10"],
     "error: --eta-over-L must be positive and finite, got -1.0"),
    (["--algo", "svrg", "--step", "fixed", "--eta-over-L", "0.1",
      "--m-kappa", "inf"],
     "error: --m-kappa must be positive and finite, got inf"),
    (["--algo", "svrg", "--step", "fixed", "--eta-over-L", "0.1",
      "--m-kappa", "nan"],
     "error: --m-kappa must be positive and finite, got nan"),
    (["--algo", "svrg", "--step", "fixed", "--eta-over-L", "0.1",
      "--m-kappa", "-1"],
     "error: --m-kappa must be positive and finite, got -1.0"),
    # finite as typed, but the length it scales to is not
    (["--algo", "svrg", "--step", "fixed", "--eta-over-L", "0.1",
      "--m-kappa", "1e308"], "error: --m-kappa * kappa = inf is not finite"),
    # so is --passes
    (["--algo", "sgd", "--passes", "inf"],
     "error: --passes must be positive and finite, got inf"),
    (["--algo", "sgd", "--passes", "nan"],
     "error: --passes must be positive and finite, got nan"),
    # a NaN mu, named by its flag, not as a non-finite L
    (["--algo", "sgd", "--mu", "nan"],
     "error: --mu must be finite and >= 0, got nan"),
    # finite flags whose derived eta0 or inner length leaves the floats
    (["--algo", "sarah", "--step", "bb", "--theta-kappa", "1e-320",
      "--no-reference"],
     "error: config 'sarah': eta0 = 1/(theta_kappa*mu) must be positive "
     "and finite, got inf"),
    (["--algo", "svrg", "--step", "bb", "--avg", "u", "--m", "10",
      "--theta-kappa", "1e-320", "--no-reference"],
     "error: config 'svrg': eta0 = 1/(theta_kappa*L) must be positive "
     "and finite, got inf"),
    (["--algo", "sarah", "--step", "bb", "--eta0-over-L", "1e-320",
      "--no-reference"],
     "error: config 'sarah': adaptive inner length c/(mu*eta_s) = inf is "
     "not finite"),
    # the same checks run before the reference solve when it is wanted
    (["--algo", "sarah", "--step", "bb", "--theta-kappa", "1e-320"],
     "error: config 'sarah': eta0 = 1/(theta_kappa*mu) must be positive "
     "and finite, got inf"),
    (["--algo", "svrg", "--step", "fixed", "--avg", "w", "--eta-over-L",
      "100", "--m", "10"],
     "error: config 'svrg': weighted schemes need 0 < mu*eta < 1, got "
     "mu*eta = 16.666666666666664"),
    # a first inner loop too long for any snapshot pmf
    (["--algo", "sarah", "--step", "bb", "--theta-kappa", "1e300",
      "--no-reference"],
     "error: config 'sarah': adaptive inner length c/(mu*eta_s) = "
     "6.000000000000002e+300 is too large: the snapshot pmf holds m_s + 1 "
     "floats, at most 1152921504606846975"),
    (["--algo", "sarah", "--step", "bb", "--theta-kappa", "1e300"],
     "error: config 'sarah': adaptive inner length c/(mu*eta_s) = "
     "6.000000000000002e+300 is too large: the snapshot pmf holds m_s + 1 "
     "floats, at most 1152921504606846975"),
    # and a fixed one
    (["--algo", "svrg", "--step", "fixed", "--eta-over-L", "0.1", "--m",
      "12345678901234567890"],
     "error: config 'svrg': inner length 12345678901234567890 is too large: "
     "the snapshot pmf holds m_s + 1 floats, at most 1152921504606846975"),
    # a fixed inner length too short for a snapshot and one inner step,
    # named as typed
    (["--algo", "svrg", "--step", "fixed", "--eta-over-L", "0.1", "--m",
      "1"],
     "error: --m must be >= 2, got 1"),
    # a seed numpy would reject, and a config id that is not one CSV cell
    (["--algo", "sarah", "--step", "bb", "--seed", "-1"],
     "error: config 'sarah': seed must be >= 0, got -1"),
    (["--algo", "sgd", "--name", "a,b"],
     "error: config 'a,b': name 'a,b' contains a comma"),
    (["--algo", "svrg", "--step", "bb", "--name", "a\nb"],
     "error: config 'a\\nb': name 'a\\nb' contains a line break"),
    (["--algo", "sgd", "--name", "a\u2028"],
     "error: config 'a\\u2028': name 'a\\u2028' contains a line break"),
    # no budget at all: its traces would hold no charged point, which
    # load_trace_csv cannot read back
    (["--algo", "sgd", "--passes", "0"],
     "error: --passes must be positive and finite, got 0.0"),
    # finite as typed, but the budget passes * n it makes is not
    (["--algo", "sgd", "--passes", "1e308"],
     "error: --passes 1e+308 makes an IFO budget of 1e+308 * 30 rows, "
     "which is not finite"),
])
def test_run_non_finite_input_exits_2(tmp_path, capsys, flags, message):
    data = gen_data(tmp_path)
    out = tmp_path / "t.csv"
    assert main(run_flags(data, out, *flags)) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()
    # rejected before the reference solve, so nothing is solved or cached
    assert not list((tmp_path / "refcache").glob("ref-*"))


def test_run_m_kappa_past_any_pmf_exits_2(tmp_path, capsys):
    # --m-kappa 1e300 is finite, but m = ceil(1e300 * kappa) has 301 digits
    data = gen_data(tmp_path)
    out = tmp_path / "t.csv"
    assert main(run_flags(data, out, "--algo", "svrg", "--step", "fixed",
                          "--eta-over-L", "0.1", "--m-kappa", "1e300")) == 2
    assert capsys.readouterr().err == (
        "error: --m-kappa * kappa = 6.000000000000002e+300 is too large: the "
        "snapshot pmf holds m_s + 1 floats, at most 1152921504606846975\n")
    assert not out.exists()
    assert not list((tmp_path / "refcache").glob("ref-*"))


def test_run_failed_allocation_exits_1(tmp_path, capsys):
    # the longest inner length the pmf bound admits: its m_s + 1 floats
    # are 8 EiB, which no machine allocates, so numpy raises MemoryError
    data = gen_data(tmp_path)
    out = tmp_path / "t.csv"
    assert main(run_flags(data, out, "--algo", "svrg", "--step", "fixed",
                          "--eta-over-L", "0.1", "--m",
                          "1152921504606846974")) == 1
    assert capsys.readouterr().err == (
        "error: config 'svrg', outer loop 1: no memory for the snapshot pmf "
        "of m_s = 1152921504606846974, an inner length set by --m\n")
    assert not out.exists()


def test_bench_failed_allocation_names_no_flag(tmp_path, capsys,
                                              monkeypatch):
    # no flag sets bench's inner lengths, so a pmf's MemoryError exits 1
    # with run()'s text alone
    data = gen_data(tmp_path)

    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(vropt.solvers, "weights", no_memory)
    out_dir = tmp_path / "bench"
    assert main(["bench", "--data", data, "--mu", "0.05", "--normalize",
                 "--passes", "1", "--out-dir", str(out_dir)]) == 1
    assert re.fullmatch(r"error: config 'svrg_u', outer loop 1: no memory "
                        r"for the snapshot pmf of m_s = \d+\n",
                        capsys.readouterr().err)
    assert not list(out_dir.iterdir())


@pytest.mark.parametrize("flags,name,m_s,flag", [
    (["--algo", "svrg", "--step", "bb", "--c", "4e16"], "svrg",
     960000000000000000, "--c"),
    (["--algo", "sarah", "--step", "fixed", "--eta-over-L", "0.1", "--m",
      "100000000000000000"], "sarah", 100000000000000000, "--m"),
    (["--algo", "sarah", "--step", "fixed", "--eta-over-L", "0.1",
      "--m-kappa", "1e16"], "sarah", 60000000000000008, "--m-kappa"),
])
def test_snapshot_pmf_past_memory_exits_1(tmp_path, capsys, flags, name,
                                          m_s, flag):
    # m_s + 1 floats pass the pmf bound check_config makes, but no machine
    # allocates them; the refusal comes after the reference solve
    data = gen_data(tmp_path)
    out = tmp_path / "t.csv"
    assert main(run_flags(data, out, *flags)) == 1
    assert capsys.readouterr().err == (
        f"error: config {name!r}, outer loop 1: no memory for the snapshot "
        f"pmf of m_s = {m_s}, an inner length set by {flag}\n")
    assert not out.exists()
    assert len(list((tmp_path / "refcache").glob("ref-*"))) == 1


@pytest.mark.parametrize("command", [
    ["reference"],
    ["run", "--algo", "sgd", "--no-reference", "--out", "t.csv"],
    ["run", "--algo", "sgd", "--out", "t.csv"],
    ["bench", "--out-dir", "bench"],
])
def test_dimension_past_any_vector_exits_1(tmp_path, capsys, monkeypatch,
                                           command):
    # the largest index the parser accepts makes a dimension whose vectors
    # are 8 EiB, which no machine allocates
    monkeypatch.chdir(tmp_path)
    Path("big.svm").write_text("+1 1152921504606846975:1\n-1 1:1\n")
    name, *flags = command
    assert main([name, "--data", "big.svm", "--mu", "0.05", *flags]) == 1
    assert capsys.readouterr().err == (
        "error: --data big.svm: no memory for a vector of dimension "
        "1152921504606846975\n")
    assert not list(tmp_path.glob("*.csv")) and not Path("bench").exists()
    # refused before the reference solve; the parse of the valid file is
    # cached all the same
    cache = tmp_path / "refcache"
    assert not list(cache.glob("ref-*"))
    assert len(list(cache.glob("data-*"))) == 1


@pytest.mark.parametrize("command", [
    ["bench", "--passes", "1", "--out-dir", "b"],
    ["run", "--algo", "sarah", "--step", "bb", "--out", "t.csv"],
    ["run", "--algo", "sarah", "--step", "fixed", "--eta-over-L", "0.1",
     "--m-kappa", "1", "--out", "t.csv"],
])
def test_kappa_past_the_floats_exits_2(tmp_path, capsys, monkeypatch,
                                       command):
    # L/mu overflows at mu = 5e-324; every command that reads kappa
    # refuses --mu before the reference solve
    data = gen_data(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["reference", "--data", data, "--mu", "0.05"]) == 0
    capsys.readouterr()
    name, *flags = command
    assert main([name, "--data", data, "--mu", "5e-324", "--normalize",
                 *flags]) == 2
    assert capsys.readouterr().err == (
        "error: --mu 5e-324 makes kappa = L/mu = inf, which is not finite\n")
    assert not list(tmp_path.glob("*.csv")) and not Path("b").exists()
    assert len(list((tmp_path / "refcache").glob("ref-*"))) == 1


def test_bench_baseline_length_past_any_pmf_exits_2(tmp_path, capsys,
                                                    monkeypatch):
    # kappa = 2.5e299 is finite, but the baselines' inner length 5 * kappa
    # is past any snapshot pmf: refused naming --mu, before the reference
    data = gen_data(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["reference", "--data", data, "--mu", "0.05"]) == 0
    capsys.readouterr()
    assert main(["bench", "--data", data, "--mu", "1e-300", "--normalize",
                 "--passes", "1", "--out-dir", "b"]) == 2
    assert capsys.readouterr().err == (
        "error: --mu 1e-300: inner length 5 * kappa = 1.2500000000000002e+300 "
        "is too large: the snapshot pmf holds m_s + 1 floats, at most "
        "1152921504606846975\n")
    assert not Path("b").exists()
    assert len(list((tmp_path / "refcache").glob("ref-*"))) == 1


@pytest.mark.parametrize("flags", [
    ["--algo", "gd"], ["--algo", "sgd"],
    ["--algo", "svrg", "--step", "fixed", "--eta-over-L", "0.1", "--m", "5"],
])
def test_runs_that_never_read_kappa_ignore_its_overflow(tmp_path, flags):
    data = gen_data(tmp_path)
    out = tmp_path / "t.csv"
    assert main(["run", "--data", data, "--mu", "5e-324", "--normalize",
                 "--passes", "2", "--no-reference", "--out", str(out),
                 *flags]) == 0
    assert out.exists()


def _tiny_problem(mu):
    """The problem `gen_data` and `--normalize` make, with this mu."""
    return LogisticProblem(normalize_rows(generate_synthetic(30, 4, 1, 3.0)),
                           mu)


_PMF_BOUND = ("the snapshot pmf holds m_s + 1 floats, at most "
              "1152921504606846975")


def _check_first(config):
    return check_config(_tiny_problem(0.05), config)


# Each refusal rule has one definition; this table pins its full message
# at every place that used to write the rule out for itself. A row is a
# run/rates/bench/reference argv (with {data} and {out}), which must exit
# 2 with the message, or a library call, which must raise it.
@pytest.mark.parametrize("call,message", [
    # positive and finite
    (lambda: FixedStep(-1.0), "step size must be positive and finite, got -1.0"),
    (lambda: BarzilaiBorweinStep(math.nan),
     "theta_kappa must be positive and finite, got nan"),
    (lambda: BarzilaiBorweinStep(4.0, eta0=math.inf),
     "eta0 must be positive and finite, got inf"),
    (lambda: AdaptiveLength(0.0), "c must be positive and finite, got 0.0"),
    (lambda: compute_reference(_tiny_problem(0.05), tol=math.nan),
     "tol must be positive and finite, got nan"),
    (lambda: cached_reference(_tiny_problem(0.05), tol=0.0),
     "tol must be positive and finite, got 0.0"),
    (["run", "--algo", "svrg", "--step", "fixed", "--eta-over-L", "-1",
      "--m", "5"], "--eta-over-L must be positive and finite, got -1.0"),
    (["run", "--algo", "sgd", "--passes", "0"],
     "--passes must be positive and finite, got 0.0"),
    (["rates", "--schemes", "svrg_u", "--sweep", "m", "--points", "10",
      "--eta", "0.1", "--L", "nan"], "--L must be positive and finite, got nan"),
    (["reference", "--tol", "inf"], "tol must be positive and finite, got inf"),
    # finite and >= 0, for mu
    (lambda: _tiny_problem(-1.0), "mu must be finite and >= 0, got -1.0"),
    (["run", "--algo", "sgd", "--mu", "-1"],
     "--mu must be finite and >= 0, got -1.0"),
    (["reference", "--mu", "nan"], "--mu must be finite and >= 0, got nan"),
    # at least 2, for a fixed length
    (lambda: FixedLength(1), "inner length must be >= 2, got 1"),
    (["run", "--algo", "svrg", "--step", "fixed", "--eta-over-L", "0.1",
      "--m", "1"], "--m must be >= 2, got 1"),
    (["rates", "--schemes", "svrg_u", "--sweep", "eta", "--points", "0.1",
      "--m", "1"], "--m must be >= 2, got 1"),
    # the inner length max(2, ceil(x)) of a real x
    (lambda: _check_first(SolverConfig(
        "sarah", step=BarzilaiBorweinStep(1.0, eta0=1e-320),
        inner=AdaptiveLength(), averaging=AveragingScheme.UNIFORM,
        outer_loops=1)),
     "adaptive inner length c/(mu*eta_s) = inf is not finite"),
    (lambda: _check_first(SolverConfig(
        "sarah", step=FixedStep(0.1), inner=FixedLength(1 << 60),
        averaging=AveragingScheme.UNIFORM, outer_loops=1)),
     f"inner length {1 << 60} is too large: {_PMF_BOUND}"),
    (["run", "--algo", "sarah", "--step", "bb", "--eta0-over-L", "1e-320",
      "--no-reference"],
     "config 'sarah': adaptive inner length c/(mu*eta_s) = inf is not finite"),
    (["run", "--algo", "svrg", "--step", "fixed", "--eta-over-L", "0.1",
      "--m-kappa", "1e308"], "--m-kappa * kappa = inf is not finite"),
    (["run", "--algo", "svrg", "--step", "fixed", "--eta-over-L", "0.1",
      "--m-kappa", "1e300"],
     f"--m-kappa * kappa = 6.000000000000002e+300 is too large: {_PMF_BOUND}"),
    (lambda: bench_configs(_tiny_problem(5e-324)),
     "inner length 5 * kappa = inf is not finite"),
    (lambda: bench_configs(_tiny_problem(1e-300)),
     "inner length 5 * kappa = 1.2500000000000002e+300 is too large: "
     f"{_PMF_BOUND}"),
    (["bench", "--mu", "1e-300"],
     "--mu 1e-300: inner length 5 * kappa = 1.2500000000000002e+300 is too "
     f"large: {_PMF_BOUND}"),
    # the most float64 entries one array holds, as the largest index too
    (lambda: parse_libsvm("+1 1152921504606846976:1\n"),
     "line 1: index 1152921504606846976 is too large"),
    # a flag the chosen mode does not read
    (["run", "--algo", "gd", "--m", "5", "--seed", "0"],
     "--algo gd takes none of: --m, --seed"),
    (["run", "--algo", "sgd", "--step", "fixed", "--c", "2"],
     "--algo sgd takes none of: --step, --c"),
    (["run", "--algo", "svrg", "--step", "fixed", "--eta-over-L", "0.2",
      "--m", "40", "--theta-kappa", "4", "--c", "2"],
     "--step fixed takes none of: --theta-kappa, --c"),
    (["rates", "--figure", "1a", "--mu", "3", "--L", "7"],
     "--figure takes none of: --L, --mu"),
    # a kappa = L/mu past the floats, where a command reads it
    (["run", "--mu", "5e-324", "--algo", "sarah", "--step", "bb"],
     "--mu 5e-324 makes kappa = L/mu = inf, which is not finite"),
    (["bench", "--mu", "5e-324"],
     "--mu 5e-324 makes kappa = L/mu = inf, which is not finite"),
], ids=lambda v: "library" if callable(v) else v[0] if isinstance(v, list)
   else None)
def test_each_refusal_rule_at_each_home(tmp_path, capsys, call, message):
    if callable(call):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
        return
    name, *flags = call
    argv = [name, *flags]
    if name != "rates":
        argv += ["--data", gen_data(tmp_path), "--normalize"]
        if "--mu" not in flags:
            argv += ["--mu", "0.05"]
    argv += {"run": ["--out", str(tmp_path / "t.csv")],
             "rates": ["--out", str(tmp_path / "t.csv")],
             "bench": ["--passes", "1", "--out-dir", str(tmp_path / "b")],
             "reference": []}[name]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["run", "reference", "bench"])
def test_mu_is_refused_by_its_flag_before_the_data_is_read(tmp_path, capsys,
                                                           command):
    # once "mu must be ...", from the problem built after --data was read
    argv = [command, "--data", str(tmp_path / "missing.svm"), "--mu", "-1",
            *{"run": ["--algo", "sgd"], "reference": [],
              "bench": ["--out-dir", str(tmp_path / "b")]}[command]]
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        "error: --mu must be finite and >= 0, got -1.0\n"


def test_bench_non_finite_passes_exits_2(tmp_path, capsys):
    data = gen_data(tmp_path)
    out_dir = tmp_path / "bench"
    for passes, message in [
            ("inf", "--passes must be positive and finite, got inf"),
            ("0", "--passes must be positive and finite, got 0.0"),
            ("1e308", "--passes 1e+308 makes an IFO budget of 1e+308 * 30 "
                      "rows, which is not finite")]:
        assert main(["bench", "--data", data, "--mu", "0.05", "--normalize",
                     "--passes", passes, "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()
        assert not list((tmp_path / "refcache").glob("ref-*"))


def test_bench_negative_seed_exits_2(tmp_path, capsys):
    data = gen_data(tmp_path)
    out_dir = tmp_path / "bench"
    assert main(["bench", "--data", data, "--mu", "0.05", "--normalize",
                 "--seed", "-5", "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == \
        "error: config 'sgd': seed must be >= 0, got -5\n"
    assert not out_dir.exists()
    assert not list((tmp_path / "refcache").glob("ref-*"))


def test_bench_out_dir_that_is_a_file_exits_1(tmp_path, capsys):
    data = gen_data(tmp_path)
    out_dir = tmp_path / "taken"
    out_dir.write_text("x", encoding="utf-8")
    assert main(["bench", "--data", data, "--mu", "0.05", "--normalize",
                 "--passes", "1", "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == \
        f"error: [Errno 17] File exists: {str(out_dir)!r}\n"
    assert out_dir.read_text(encoding="utf-8") == "x"
    # the output place is claimed before the reference solve
    assert not list((tmp_path / "refcache").glob("ref-*"))


def test_run_out_in_a_missing_directory_exits_1(tmp_path, capsys):
    data = gen_data(tmp_path)
    out = tmp_path / "missing" / "t.csv"
    assert main(run_flags(data, out, "--algo", "sgd")) == 1
    assert capsys.readouterr().err == \
        f"error: --out {out}: no directory {str(out.parent)!r}\n"
    assert not out.parent.exists()
    assert not list((tmp_path / "refcache").glob("ref-*"))


@pytest.mark.parametrize("out", ["adir", ""])  # "" names the cwd
def test_run_out_that_is_a_directory_exits_1(tmp_path, capsys, monkeypatch,
                                             out):
    data = gen_data(tmp_path)
    monkeypatch.chdir(tmp_path)
    Path(out).mkdir(exist_ok=True)
    assert main(run_flags(data, out, "--algo", "sgd")) == 1
    assert capsys.readouterr().err == f"error: --out {out}: is a directory\n"
    assert not list(Path(out).glob("*.csv"))
    # the output place is claimed before the reference solve
    assert not list((tmp_path / "refcache").glob("ref-*"))


def test_run_out_with_a_trailing_separator_exits_1(tmp_path, capsys,
                                                   monkeypatch):
    # Path("missing/") is Path("missing"), which would be written as a file
    data = gen_data(tmp_path)
    monkeypatch.chdir(tmp_path)
    out = "missing" + os.sep
    assert main(run_flags(data, out, "--algo", "sgd")) == 1
    assert capsys.readouterr().err == f"error: --out {out}: is a directory\n"
    assert not (tmp_path / "missing").exists()
    # the output place is claimed before the reference solve
    assert not list((tmp_path / "refcache").glob("ref-*"))


def test_run_missing_data_exits_1(tmp_path):
    assert main(run_flags(str(tmp_path / "nope.libsvm"), tmp_path / "t.csv",
                          "--algo", "gd")) == 1


def test_run_malformed_data_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.libsvm"
    path.write_text("+1 1:0.5\n-1 oops\n", encoding="utf-8")
    assert main(run_flags(str(path), tmp_path / "t.csv",
                          "--algo", "gd")) == 2
    assert "line 2" in capsys.readouterr().err


def test_run_divergence_exits_3(tmp_path, capsys):
    data = gen_data(tmp_path)
    assert main(["run", "--data", data, "--mu", "1.0", "--normalize",
                 "--out", str(tmp_path / "t.csv"), "--algo", "svrg",
                 "--step", "fixed", "--eta-over-L", "40", "--m", "50",
                 "--passes", "200", "--no-reference"]) == 3
    assert "divergence" in capsys.readouterr().err


# --------------------------------------------------------------- rates

def test_rates_figure_1b_contains_anchor_point(tmp_path):
    out = tmp_path / "rates.csv"
    assert main(["rates", "--figure", "1b", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "scheme,x,lambda,defined"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 26  # 13 grid points x 2 schemes
    anchor = [r for r in rows if r[0] == "sarah_w" and float(r[1]) == 5e5]
    assert len(anchor) == 1
    assert abs(float(anchor[0][2]) - 0.8) <= 0.05


def test_rates_custom_grid(tmp_path):
    out = tmp_path / "rates.csv"
    assert main(["rates", "--schemes", "svrg_u,sarah_l",
                 "--L", "1.0", "--mu", "0.001", "--sweep", "eta",
                 "--points", "0.1,0.3", "--m", "1000",
                 "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    assert {line.split(",")[0] for line in lines[1:]} == {"svrg_u", "sarah_l"}


def test_rates_sweep_defaults_to_unit_l_and_mu_1e_5(tmp_path):
    sweep = ["rates", "--schemes", "svrg_w,sarah_u", "--sweep", "m",
             "--points", "1e5,1e6", "--eta", "0.1"]
    given, default = tmp_path / "given.csv", tmp_path / "default.csv"
    assert main([*sweep, "--L", "1", "--mu", "1e-5", "--out", str(given)]) == 0
    assert main([*sweep, "--out", str(default)]) == 0
    assert default.read_bytes() == given.read_bytes()


def test_rates_weighted_recursive_at_huge_m(tmp_path):
    # mu*eta*(m-1) = 1e-9 takes the normalizer's series branch at m = 1e9
    out = tmp_path / "rates.csv"
    assert main(["rates", "--schemes", "sarah_w", "--L", "1",
                 "--mu", "1e-12", "--sweep", "m", "--points", "1000000000",
                 "--eta", "1e-6", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    scheme, x, value, defined = lines[1].split(",")
    assert (scheme, float(x), defined) == ("sarah_w", 1e9, "true")
    assert float(value) == pytest.approx(2.9999995020007503e18, rel=1e-12)


@pytest.mark.parametrize("flags,message", [
    ([], "need --figure or --schemes, --sweep, --points"),
    (["--schemes", "svrg_u"], "need --figure or --sweep, --points"),
    (["--schemes", "sarah_u", "--sweep", "m", "--eta", "0.1"],
     "need --figure or --points"),
    (["--schemes", ""], "need --figure or --schemes, --sweep, --points"),
    # a figure's grid is fixed: a sweep flag beside it is refused, not
    # ignored
    (["--figure", "1a", "--schemes", "svrg_u"],
     "--figure takes none of: --schemes"),
    (["--figure", "1a", "--schemes", "bogus", "--sweep", "eta", "--points",
      "1"], "--figure takes none of: --schemes, --sweep, --points"),
    (["--figure", "2", "--eta", "0.1", "--m", "10"],
     "--figure takes none of: --eta, --m"),
    # a figure's constants are fixed too
    (["--figure", "1a", "--L", "7"], "--figure takes none of: --L"),
    (["--figure", "4b-analytic", "--mu", "3"], "--figure takes none of: --mu"),
    (["--figure", "1a", "--mu", "3", "--L", "7"],
     "--figure takes none of: --L, --mu"),
    # a sweep's swept coordinate is not also its fixed one
    (["--schemes", "svrg_u", "--sweep", "m", "--points", "10", "--eta", "0.1",
      "--m", "5"], "sweep over m takes no fixed m"),
    (["--schemes", "sarah_u", "--sweep", "eta", "--points", "0.1", "--m",
      "50", "--eta", "0.3"], "sweep over eta takes no fixed eta"),
    (["--schemes", "svrg_u", "--sweep", "m", "--points", "a,2", "--eta",
      "0.1"], "--points: could not convert string to float: 'a'"),
    # a scheme list with no scheme in it
    (["--schemes", ",", "--sweep", "m", "--points", "10", "--eta", "0.1"],
     "no schemes to evaluate"),
])
def test_rates_mode_refusals(tmp_path, capsys, flags, message):
    out = tmp_path / "r.csv"
    assert main(["rates", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_rates_flag_errors(tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    with pytest.raises(SystemExit) as info:
        main(["rates", "--figure", "bogus", "--out", out])
    assert info.value.code == 2
    assert main(["rates", "--schemes", "mystery",
                 "--sweep", "eta", "--points", "0.1", "--m", "10",
                 "--out", out]) == 2


@pytest.mark.parametrize("flags,message", [
    # each flag's value is checked as typed, before the flags are combined
    (["--L", "nan"], "error: --L must be positive and finite, got nan"),
    (["--L", "inf"], "error: --L must be positive and finite, got inf"),
    (["--mu", "nan"], "error: --mu must be positive and finite, got nan"),
    (["--eta", "inf"], "error: --eta must be positive and finite, got inf"),
    (["--points", "1e400"], "error: m sweep point inf is not finite"),
    (["--points", "nan"], "error: m sweep point nan is not finite"),
    (["--points", "10,-inf"], "error: m sweep point -inf is not finite"),
    # as typed, so before rate_grid refuses a fixed m beside --sweep m
    (["--m", "1"], "error: --m must be >= 2, got 1"),
    (["--points", "2.4,2.5,3.5,1e3"],
     "error: m sweep point 2.4 is not a whole number"),
    # a repeated scheme once wrote each of its rows twice
    (["--schemes", "svrg_u,svrg_u"],
     "error: scheme 'svrg_u' is given more than once"),
])
def test_rates_non_finite_input_exits_2(tmp_path, capsys, flags, message):
    # the later of two equal flags wins, so each case overrides one value
    out = tmp_path / "r.csv"
    argv = ["rates", "--schemes", "svrg_u,sarah_w",
            "--sweep", "m", "--points", "10,20", "--eta", "0.1",
            "--L", "1", "--mu", "1e-3", *flags, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    # 1/(mu*eta*(1-2*eta*L)*m), about 1/1e-309, is past the largest float
    (["--schemes", "svrg_u,sarah_u,svrg_w", "--sweep", "eta", "--points",
      "1e-305", "--m", "10"], "the svrg_u bound at eta=1e-305, m=10"),
    (["--schemes", "sarah_u,svrg_w", "--sweep", "eta", "--points",
      "0.1,1e-305", "--m", "10"], "the sarah_u bound at eta=1e-305, m=10"),
    # c*mu*eta underflows to 0
    (["--schemes", "sarah_w", "--sweep", "m", "--points", "10", "--eta",
      "1e-300"], "the sarah_w bound at eta=1e-300, m=10"),
])
def test_rates_bound_past_the_floats_exits_2(tmp_path, capsys, flags,
                                             message):
    # refused, never written as inf nor mapped to an undefined point
    out = tmp_path / "r.csv"
    assert main(["rates", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {message} overflows in floats\n")
    assert not out.exists()


def test_rates_m_past_the_floats_exits_2(tmp_path, capsys):
    # once accepted by the query and then refused by every calculator
    out = tmp_path / "r.csv"
    m = "1" + "0" * 400
    assert main(["rates", "--schemes", "svrg_u", "--sweep", "eta", "--points",
                 "0.1", "--m", m, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: m must be at most the largest float, got an integer of "
        f"{int(m).bit_length()} bits\n")
    assert not out.exists()


# each CSV was written, for the same argv, by the rates module as it was
# before queries and rows became named tuples, figure-2 and 4b-analytic
# with numpy's AVX512 kernels turned off (their grids then came from
# np.logspace); the bytes must not change
RATE_GOLDEN = Path(__file__).parent / "golden" / "rates"
RATE_CASES = {f"figure-{f}": ["--figure", f]
              for f in ("1a", "1b", "2", "4b-analytic")}
RATE_CASES["custom-m-sweep"] = [
    "--schemes", "sarah_w,sarah_u", "--L", "1", "--mu", "1e-5",
    "--sweep", "m", "--points", "1e5,5e5,1e6", "--eta", "0.5"]


@pytest.mark.parametrize("name", sorted(RATE_CASES))
def test_rates_csv_matches_golden(tmp_path, name):
    out = tmp_path / "rates.csv"
    assert main(["rates", *RATE_CASES[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (RATE_GOLDEN / f"{name}.csv").read_bytes()


# numpy's dispatch groups with AVX512 kernels, by the names of numpy 1.x
# and 2.x; numpy warns about a name its build does not dispatch, and
# ignores it
_AVX512_GROUPS = ("X86_V4 AVX512F AVX512CD AVX512_KNL AVX512_KNM AVX512_SKX "
                  "AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR AVX512_FP16")


def test_figure_csvs_do_not_depend_on_numpys_simd_dispatch(tmp_path):
    # the figure grids come from math alone, so a process whose numpy may
    # not use AVX512 writes the goldens' bytes too; on a CPU without
    # AVX512 this repeats the golden test
    src = str(Path(vropt.cli.__file__).resolve().parents[1])
    figures = [f for f in RATE_CASES if f.startswith("figure-")]
    code = ("import sys, vropt.cli\n"
            "out, figures = sys.argv[1], sys.argv[2:]\n"
            "for name in figures:\n"
            "    argv = ['rates', '--figure', name.removeprefix('figure-'),\n"
            "            '--out', f'{out}/{name}.csv']\n"
            "    assert vropt.cli.main(argv) == 0, argv\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), *figures],
        env=dict(os.environ, PYTHONPATH=src,
                 NPY_DISABLE_CPU_FEATURES=_AVX512_GROUPS),
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    for name in figures:
        assert (tmp_path / f"{name}.csv").read_bytes() == \
            (RATE_GOLDEN / f"{name}.csv").read_bytes(), name


# --------------------------------------------------------------- bench

def test_bench_writes_expected_files(tmp_path):
    data = gen_data(tmp_path)
    out_dir = tmp_path / "bench"
    assert main(["bench", "--data", data, "--mu", "0.05", "--normalize",
                 "--passes", "3", "--out-dir", str(out_dir), "--plot"]) == 0
    names = {p.name for p in out_dir.iterdir()}
    assert names == {"sgd.csv", "svrg_u.csv", "sarah_u.csv", "bb_svrg_w.csv",
                     "bb_sarah_w.csv", "comparison.csv", "bench.svg"}
    merged = load_trace_csv((out_dir / "comparison.csv").read_text("utf-8"))
    assert [t.config_id for t in merged] == \
        ["sgd", "svrg_u", "sarah_u", "bb_svrg_w", "bb_sarah_w"]
    svg = (out_dir / "bench.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg") and "sample passes" in svg
    # the least budget an accepted --passes gives, one IFO, still charges
    # each config one outer loop, so every CSV reads back
    tiny = tmp_path / "tiny"
    assert main(["bench", "--data", data, "--mu", "0.05", "--normalize",
                 "--passes", "1e-300", "--out-dir", str(tiny)]) == 0
    for path in tiny.iterdir():
        traces = load_trace_csv(path.read_text(encoding="utf-8"))
        assert all(t.final.ifo_total > 0 for t in traces)


def test_bench_reruns_byte_identical(tmp_path):
    data = gen_data(tmp_path)
    for sub in ("one", "two"):
        assert main(["bench", "--data", data, "--mu", "0.05", "--normalize",
                     "--passes", "3", "--seed", "11",
                     "--out-dir", str(tmp_path / sub)]) == 0
    a = (tmp_path / "one" / "comparison.csv").read_bytes()
    b = (tmp_path / "two" / "comparison.csv").read_bytes()
    assert a == b


# ----------------------------------------------------------- reference

def test_reference_command(tmp_path, capsys, monkeypatch):
    data = gen_data(tmp_path)
    cache = tmp_path / "cache"
    monkeypatch.setenv("VROPT_CACHE_DIR", str(cache))
    assert main(["reference", "--data", data, "--mu", "0.05",
                 "--normalize"]) == 0
    out = capsys.readouterr().out
    assert "f_star=" in out and "grad_norm=" in out
    assert len(list(cache.glob("ref-*.npy"))) == 1
    assert len(list(cache.glob("data-*.npy"))) == 1
    assert len(list(cache.iterdir())) == 2


def test_reference_below_float_resolution_exits_1(tmp_path, capsys,
                                                  monkeypatch):
    data = gen_data(tmp_path)
    capsys.readouterr()  # drop gen's report
    cache = tmp_path / "cache"
    monkeypatch.setenv("VROPT_CACHE_DIR", str(cache))
    assert main(["reference", "--data", data, "--mu", "0.05", "--normalize",
                 "--tol", "1e-200"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: reference solver hit the 10000-iteration "
                        r"cap with gradient norm \S+ > tol 1\.000e-200\n",
                        captured.err)
    assert not list(cache.glob("ref-*"))


@pytest.mark.parametrize("start", ["cold", "warm"])
def test_reference_infinite_tol_exits_2(tmp_path, capsys, monkeypatch, start):
    # any gradient norm meets an infinite tol: cold, f(0) would be taken
    # for the optimum, and warm, any cached entry
    data = gen_data(tmp_path)
    cache = tmp_path / "cache"
    monkeypatch.setenv("VROPT_CACHE_DIR", str(cache))
    flags = ["reference", "--data", data, "--mu", "0.05", "--normalize"]
    if start == "warm":
        assert main(flags) == 0
    entries = {p.name: p.read_bytes() for p in cache.glob("ref-*")}
    capsys.readouterr()
    assert main(flags + ["--tol", "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tol must be positive and finite, got inf\n"
    assert {p.name: p.read_bytes() for p in cache.glob("ref-*")} == entries
    assert len(entries) == (start == "warm")


# -------------------------------------------------------- dataset cache

def count_parses(monkeypatch):
    """Record every text the CLI hands to parse_libsvm."""
    calls = []
    real = vropt.cli.parse_libsvm

    def parse(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(vropt.cli, "parse_libsvm", parse)
    return calls


def command_argv(command, data, out):
    if command == "reference":
        return ["reference", "--data", data, "--mu", "0.05", "--normalize"]
    if command == "run":
        return run_flags(data, out / "trace.csv", "--algo", "svrg",
                         "--step", "bb", "--passes", "4")
    return ["bench", "--data", data, "--mu", "0.05", "--normalize",
            "--passes", "3", "--out-dir", str(out), "--plot"]


@pytest.mark.parametrize("command", ["reference", "run", "bench"])
def test_warm_start_repeats_cold_start(tmp_path, capsys, monkeypatch,
                                       command):
    data = gen_data(tmp_path)
    capsys.readouterr()
    parses = count_parses(monkeypatch)
    results = []
    for start in ("cold", "warm"):
        out = tmp_path / start
        out.mkdir()
        assert main(command_argv(command, data, out)) == 0
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        results.append((capsys.readouterr().out, files))
    assert results[0] == results[1]
    assert len(parses) == 1  # the warm start read the parsed-dataset cache
    cache = tmp_path / "refcache"  # VROPT_CACHE_DIR, set in conftest
    assert len(list(cache.glob("data-*.npy"))) == 1
    assert len(list(cache.glob("ref-*.npy"))) == 1


def test_parent_era_npz_entries_ignored_and_untouched(tmp_path, capsys,
                                                      monkeypatch):
    data = gen_data(tmp_path)
    capsys.readouterr()
    argv = command_argv("reference", data, tmp_path)
    monkeypatch.setenv("VROPT_CACHE_DIR", str(tmp_path / "cold"))
    assert main(argv) == 0
    cold = capsys.readouterr().out
    # .npz entries in the layout earlier versions wrote, under the names
    # they gave the same content; each holds wrong values, so reading
    # either one would change the output
    cache = tmp_path / "upgraded"
    cache.mkdir()
    raw = Path(data).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    ds = normalize_rows(parse_libsvm(raw.decode("utf-8")))
    key = problem_key(LogisticProblem(ds, 0.05))
    np.savez(cache / f"data-{digest[:16]}.npz",
             meta=np.array((digest, 1), dtype=[("sha256", "<U64"),
                                               ("dim", "<i8")]),
             indptr=np.array([0, 1]), indices=np.array([0]),
             data=np.array([1.0]), labels=np.array([1], dtype=np.int8))
    np.savez(cache / f"ref-{key}.npz",
             meta=np.array((key, ds.dim, 1e-10, -1.0, 0.0),
                           dtype=[("key", "<U16"), ("dim", "<i8"),
                                  ("tol", "<f8"), ("f_star", "<f8"),
                                  ("grad_norm", "<f8")]),
             x_star=np.zeros(ds.dim))
    old = {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
           for p in cache.iterdir()}
    monkeypatch.setenv("VROPT_CACHE_DIR", str(cache))
    for _ in ("cold", "warm"):
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
            for p in cache.glob("*.npz")} == old
    assert len(list(cache.glob("data-*.npy"))) == 1
    assert len(list(cache.glob("ref-*.npy"))) == 1
    assert len(list(cache.iterdir())) == 4


def test_parent_layout_ref_entry_is_solved_again_once(tmp_path, capsys,
                                                     monkeypatch):
    data = gen_data(tmp_path)
    capsys.readouterr()
    argv = command_argv("reference", data, tmp_path)
    monkeypatch.setenv("VROPT_CACHE_DIR", str(tmp_path / "cold"))
    assert main(argv) == 0
    cold = capsys.readouterr().out
    (cold_entry,) = (tmp_path / "cold").glob("ref-*.npy")
    # a ref entry in the layout that also held dim, tol and x_star, under
    # the name it has now; it holds wrong values, so reading it would
    # change the output
    cache = tmp_path / "upgraded"
    cache.mkdir()
    ds = normalize_rows(parse_libsvm(Path(data).read_text(encoding="utf-8")))
    key = problem_key(LogisticProblem(ds, 0.05))
    record = np.zeros((), [("key", "<U16"), ("dim", "<i8"), ("tol", "<f8"),
                           ("f_star", "<f8"), ("grad_norm", "<f8"),
                           ("x_star", "<f8", (ds.dim,)), ("crc32", "<u4")])
    record[["key", "dim", "tol", "f_star", "grad_norm"]] = (
        key, ds.dim, 1e-10, -1.0, 0.0)
    record["crc32"] = zlib.crc32(record.reshape(1).view(np.uint8)[:-4])
    entry = cache / cold_entry.name
    np.save(entry, record)
    monkeypatch.setenv("VROPT_CACHE_DIR", str(cache))
    for _ in ("miss", "hit"):
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        assert entry.read_bytes() == cold_entry.read_bytes()


def test_edited_data_file_misses_cache(tmp_path, capsys, monkeypatch):
    data = gen_data(tmp_path)
    parses = count_parses(monkeypatch)
    argv = command_argv("reference", data, tmp_path)
    assert main(argv) == 0
    first = capsys.readouterr().out
    path = Path(data)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("-1 ", "+1 ", 1), encoding="utf-8")
    assert main(argv) == 0
    assert capsys.readouterr().out != first
    assert len(parses) == 2
    assert len(list((tmp_path / "refcache").glob("data-*.npy"))) == 2


def test_run_without_reference_needs_no_writable_cache(tmp_path,
                                                       monkeypatch, capsys):
    data = gen_data(tmp_path)
    capsys.readouterr()
    assert main(command_argv("reference", data, tmp_path)) == 0
    writable = capsys.readouterr().out
    blocked = tmp_path / "a-file"
    blocked.write_text("", encoding="utf-8")
    monkeypatch.setenv("VROPT_CACHE_DIR", str(blocked))
    out = tmp_path / "trace.csv"
    assert main(run_flags(data, out, "--algo", "sgd", "--passes", "2",
                          "--no-reference")) == 0
    capsys.readouterr()
    # a failed write of the ref-*.npy entry is ignored like a data entry's
    assert main(command_argv("reference", data, tmp_path)) == 0
    assert capsys.readouterr().out == writable
    assert main(command_argv("run", data, tmp_path)) == 0


@pytest.mark.parametrize("content", [b"+1 1:0.5\n-1 2:x\n",
                                     b"+1 1:0.5\n-1 2:\xff\n",
                                     b"+1 1:nan\n", b"+1 1:inf\n",
                                     b"+1 1152921504606846976:1\n-1 1:1\n"],
                         ids=["parse-error", "non-utf8", "nan", "inf",
                              "index-too-large"])
def test_bad_data_exits_2_and_caches_nothing(tmp_path, capsys, content):
    data = tmp_path / "bad.libsvm"
    data.write_bytes(content)
    assert main(command_argv("reference", str(data), tmp_path)) == 2
    assert "error:" in capsys.readouterr().err
    cache = tmp_path / "refcache"
    assert not cache.exists() or not list(cache.glob("data-*"))


# finite entries whose squared row norm is past the float range
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("normalize,message", [
    (["--normalize"], "error: row 1 has a squared norm past the float range"),
    ([], "error: smoothness L = inf is not finite"),
], ids=["normalize", "raw"])
def test_overflowing_row_norm_exits_2(tmp_path, capsys, normalize, message):
    data = tmp_path / "big.libsvm"
    data.write_text("-1 1:1.0\n+1 1:1e200 2:1.0\n", encoding="ascii")
    argv = ["reference", "--data", str(data), "--mu", "0.05", *normalize]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_entry_underflowing_when_scaled_exits_2(tmp_path, capsys):
    data = tmp_path / "tiny.libsvm"
    data.write_text("-1 1:1.0\n+1 1:1e150 2:1e-180\n", encoding="ascii")
    assert main(command_argv("reference", str(data), tmp_path)) == 2
    assert ("error: row 1 has an entry that underflows to zero when the row "
            "is scaled to unit norm") in capsys.readouterr().err
    assert not list((tmp_path / "refcache").glob("ref-*"))


# the bytes argparse printed when every command was a sub-parser of one
# parser, but for reference-extra, whose usage error is now the command's
# own; argparse's layout differs between Python minor versions
GOLDEN = Path(__file__).parent / "golden" / "cli"
TEXT_CASES = {"help": ["--help"], "no-command": [], "bogus": ["bogus"],
              "run-no-flags": ["run"],
              "reference-extra": ["reference", "--data", "d", "--mu", "1",
                                  "extra"]}
TEXT_CASES.update((f"{c}-help", [c, "--help"])
                  for c in ("gen", "run", "rates", "bench", "reference"))


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="golden bytes are from Python 3.11's argparse")
@pytest.mark.parametrize("name", sorted(TEXT_CASES))
def test_help_and_usage_errors_match_golden(name, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(TEXT_CASES[name])
    out = capsys.readouterr()
    got = f"exit {exc.value.code}\n--- stdout\n{out.out}--- stderr\n{out.err}"
    assert got == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_unknown_option_before_a_command_lists_every_remaining_token(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-x", "gen", "--n", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "vropt: error: unrecognized arguments: -x --n 3\n")


@settings(max_examples=300, deadline=None)
@given(argv=st.lists(st.one_of(
    st.sampled_from(["gen", "run", "rates", "bench", "reference", "--", "-",
                     "-h", "--help", "--he", "-x", "--n", "3", "-1", "",
                     "--data=d", "-hx"]),
    st.text(max_size=4)), max_size=5))
@example(argv=["--", "gen"]).via("-- before a command")
def test_top_level_parser_never_parses(argv):
    # main hands it only an argv whose first token names no command; it
    # prints the top-level help or a usage error and exits, whatever follows
    assume(not argv or argv[0] not in vropt.cli._COMMANDS)
    with pytest.raises(SystemExit), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        vropt.cli._build_parser(None).parse_args(argv)


def test_import_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency: a fresh process imports vropt,
    # runs every command, and loads no module of the test extra (scipy is
    # a test-only oracle)
    src = str(Path(vropt.cli.__file__).resolve().parents[1])
    data = str(tmp_path / "data.libsvm")
    problem = ["--data", data, "--mu", "0.05", "--normalize", "--passes", "2"]
    commands = [
        ["gen", "--n", "30", "--d", "4", "--seed", "1", "--out", data],
        ["reference", *problem[:5]],  # cold
        ["reference", *problem[:5]],  # warm
        *[["run", *problem, "--algo", *algo, "--out",
           str(tmp_path / f"{algo[0]}.csv")]
          for algo in (["sgd"], ["svrg", "--step", "bb"],
                       ["sarah", "--step", "bb"])],
        ["rates", "--figure", "1a", "--out", str(tmp_path / "figure.csv")],
        ["rates", "--schemes", "svrg_u,sarah_w", "--sweep", "m", "--points",
         "10,20", "--eta", "0.1", "--out", str(tmp_path / "sweep.csv")],
        ["bench", *problem, "--plot", "--out-dir", str(tmp_path / "bench")],
    ]
    code = ("import contextlib, io, json, sys\n"
            "import vropt, vropt.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert vropt.cli.main(argv) == 0, argv\n"
            "extra = {'scipy', 'mpmath', 'hypothesis', 'pytest'}\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.partition('.')[0] in extra))\n")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert (tmp_path / "bench" / "bench.svg").is_file()


# ------------------------------------------------------- installed entry

def test_console_script_and_module_entry(tmp_path):
    data = tmp_path / "d.libsvm"
    p1 = subprocess.run(["vropt", "gen", "--n", "8", "--d", "2",
                         "--out", str(data)],
                        capture_output=True, text=True)
    assert p1.returncode == 0, p1.stderr
    p2 = subprocess.run([sys.executable, "-m", "vropt", "rates",
                         "--figure", "1a", "--out",
                         str(tmp_path / "r.csv")],
                        capture_output=True, text=True)
    assert p2.returncode == 0, p2.stderr
    assert (tmp_path / "r.csv").is_file()
