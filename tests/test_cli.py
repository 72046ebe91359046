import os
import subprocess
import sys
from pathlib import Path

import pytest

import vropt.cli
from vropt import load_trace_csv
from vropt.cli import main


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
    read = lambda p: open(p, "rb").read()
    assert read(a) == read(b)
    assert read(a) != read(c)


def test_gen_invalid_size_exits_2(tmp_path, capsys):
    assert main(["gen", "--n", "1", "--d", "3",
                 "--out", str(tmp_path / "x.libsvm")]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_run_bb_defaults_to_weighted(tmp_path):
    data = gen_data(tmp_path)
    out = tmp_path / "trace.csv"
    assert main(run_flags(data, out, "--algo", "sarah", "--step", "bb",
                          "--passes", "8")) == 0
    trace, = load_trace_csv(out.read_text(encoding="utf-8"))
    assert trace.final.s >= 3  # secant updates engaged
    assert all(p.m_s >= 2 for p in trace.points[1:])


def test_run_flag_rejection(tmp_path, capsys):
    data = gen_data(tmp_path)
    out = tmp_path / "t.csv"
    bad = [
        ["--algo", "gd", "--m", "5"],
        ["--algo", "sgd", "--step", "fixed"],
        ["--algo", "svrg"],  # no --step
        ["--algo", "svrg", "--step", "fixed", "--m", "40"],  # no eta
        ["--algo", "svrg", "--step", "fixed", "--eta-over-L", "0.2"],  # no m
        ["--algo", "svrg", "--step", "fixed", "--eta-over-L", "0.2",
         "--m", "40", "--theta-kappa", "4"],
        ["--algo", "sarah", "--step", "bb", "--eta-over-L", "0.5"],
        ["--algo", "sarah", "--step", "fixed", "--eta-over-L", "0.5",
         "--m", "10", "--m-kappa", "2"],
        ["--algo", "sarah", "--step", "bb", "--m", "10", "--c", "2.0"],
    ]
    for extra in bad:
        assert main(run_flags(data, out, *extra)) == 2, extra
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


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
    assert main(["rates", "--custom", "--schemes", "svrg_u,sarah_l",
                 "--L", "1.0", "--mu", "0.001", "--sweep", "eta",
                 "--points", "0.1,0.3", "--m", "1000",
                 "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    assert {line.split(",")[0] for line in lines[1:]} == {"svrg_u", "sarah_l"}


def test_rates_weighted_recursive_at_huge_m(tmp_path):
    # mu*eta*(m-1) = 1e-9 takes the normalizer's series branch at m = 1e9
    out = tmp_path / "rates.csv"
    assert main(["rates", "--custom", "--schemes", "sarah_w", "--L", "1",
                 "--mu", "1e-12", "--sweep", "m", "--points", "1000000000",
                 "--eta", "1e-6", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    scheme, x, value, defined = lines[1].split(",")
    assert (scheme, float(x), defined) == ("sarah_w", 1e9, "true")
    assert float(value) == pytest.approx(2.9999995020007503e18, rel=1e-12)


def test_rates_flag_errors(tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    assert main(["rates", "--out", out]) == 2
    assert main(["rates", "--figure", "1a", "--custom", "--out", out]) == 2
    assert main(["rates", "--custom", "--schemes", "svrg_u",
                 "--out", out]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["rates", "--figure", "bogus", "--out", out])
    assert info.value.code == 2
    assert main(["rates", "--custom", "--schemes", "mystery",
                 "--sweep", "eta", "--points", "0.1", "--m", "10",
                 "--out", out]) == 2


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

def test_reference_command(tmp_path, capsys):
    data = gen_data(tmp_path)
    cache = tmp_path / "cache"
    assert main(["reference", "--data", data, "--mu", "0.05", "--normalize",
                 "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "f_star=" in out and "grad_norm=" in out
    assert len(list(cache.glob("ref-*.npz"))) == 1
    assert len(list(cache.glob("data-*.npz"))) == 1
    assert len(list(cache.iterdir())) == 2


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
    assert len(list(cache.glob("data-*.npz"))) == 1
    assert len(list(cache.glob("ref-*.npz"))) == 1


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
    assert len(list((tmp_path / "refcache").glob("data-*.npz"))) == 2


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
    # a failed write of the ref-*.npz entry is ignored like a data entry's
    assert main(command_argv("reference", data, tmp_path)) == 0
    assert capsys.readouterr().out == writable
    assert main(command_argv("run", data, tmp_path)) == 0


@pytest.mark.parametrize("content", [b"+1 1:0.5\n-1 2:x\n",
                                     b"+1 1:0.5\n-1 2:\xff\n",
                                     b"+1 1:nan\n", b"+1 1:inf\n"],
                         ids=["parse-error", "non-utf8", "nan", "inf"])
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


# the bytes argparse printed before each command built only its own
# arguments; argparse's layout differs between Python minor versions
GOLDEN = Path(__file__).parent / "golden" / "cli"
TEXT_CASES = {"help": ["--help"], "no-command": [], "bogus": ["bogus"],
              "run-no-flags": ["run"]}
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


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is a test-only oracle
    src = str(Path(vropt.cli.__file__).resolve().parents[1])
    code = ("import sys, vropt, vropt.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
